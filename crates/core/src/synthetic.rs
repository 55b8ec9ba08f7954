//! Synthetic speculative workloads.
//!
//! Hand-built trace programs with precisely placed dependences — the
//! fastest way to explore how TLS and sub-threads react to a dependence
//! *shape* without recording a full database workload. Used by the
//! Figure 1/2 microbenchmark, the kernel microbenchmark, and the test suite;
//! exported because the paper's closing recommendation is to apply
//! sub-threads "in other application domains as well", and these
//! generators are the template for modeling such a domain.

use tls_trace::{Addr, LatchId, OpSink, Pc, ProgramBuilder, TraceProgram};

/// Where, within a thread, a dependence endpoint sits (fraction of the
/// thread's instructions, `0.0..=1.0`).
pub type Position = f64;

/// A producer/consumer dependence between consecutive threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dependence {
    /// Position of the producing store within each thread.
    pub store_at: Position,
    /// Position of the consuming load within each (later) thread.
    pub load_at: Position,
}

impl Dependence {
    /// A dependence with the load at `load_at` and the store at
    /// `store_at`.
    pub fn new(load_at: Position, store_at: Position) -> Self {
        Dependence { store_at, load_at }
    }
}

/// Builds `threads` speculative threads of `ops` instructions each, all
/// sharing one location per [`Dependence`]: every thread stores to it at
/// `store_at` and every thread loads it at `load_at` (reading the
/// logically-previous thread's value).
///
/// ```
/// use tls_core::synthetic::{shared_dependences, Dependence};
/// let p = shared_dependences(4, 10_000, &[Dependence::new(0.5, 0.9)]);
/// assert_eq!(p.stats().epochs, 4);
/// ```
pub fn shared_dependences(threads: usize, ops: usize, deps: &[Dependence]) -> TraceProgram {
    let mut b = ProgramBuilder::new("synthetic-shared");
    b.begin_parallel();
    for t in 0..threads {
        b.begin_epoch();
        // Emit work with dependence endpoints interleaved at their
        // positions.
        let mut events: Vec<(usize, usize, bool)> = Vec::new(); // (op idx, dep idx, is_store)
        for (i, d) in deps.iter().enumerate() {
            events.push(((d.load_at.clamp(0.0, 1.0) * ops as f64) as usize, i, false));
            events.push(((d.store_at.clamp(0.0, 1.0) * ops as f64) as usize, i, true));
        }
        events.sort_by_key(|&(at, i, s)| (at, i, s));
        let mut cursor = 0;
        for (at, dep, is_store) in events {
            let at = at.min(ops);
            if at > cursor {
                b.int_ops(Pc::new(t as u16, 0), at - cursor);
                cursor = at;
            }
            let addr = Addr(0x8_0000 + 64 * dep as u64);
            if is_store {
                b.store(Pc::new(0x100 + dep as u16, 1), addr, 8);
            } else {
                b.load(Pc::new(0x100 + dep as u16, 0), addr, 8);
            }
        }
        if cursor < ops {
            b.int_ops(Pc::new(t as u16, 0), ops - cursor);
        }
        b.end_epoch();
    }
    b.end_parallel();
    b.finish()
}

/// Builds `threads` threads of `ops` instructions passing a value down a
/// pipeline: thread *t* stores location *t+1* at `store_at` and loads
/// location *t* at `load_at` (thread 0 loads nothing).
pub fn pipeline(threads: usize, ops: usize, load_at: Position, store_at: Position) -> TraceProgram {
    let mut b = ProgramBuilder::new("synthetic-pipeline");
    b.begin_parallel();
    for t in 0..threads {
        b.begin_epoch();
        let load_idx = (load_at.clamp(0.0, 1.0) * ops as f64) as usize;
        let store_idx = (store_at.clamp(0.0, 1.0) * ops as f64) as usize;
        let (first, second) =
            if load_idx <= store_idx { (load_idx, store_idx) } else { (store_idx, load_idx) };
        b.int_ops(Pc::new(t as u16, 0), first);
        let emit = |b: &mut ProgramBuilder, idx: usize| {
            if idx == load_idx && t > 0 {
                b.load(Pc::new(0x200, 0), Addr(0x9_0000 + 64 * t as u64), 8);
            }
            if idx == store_idx {
                b.store(Pc::new(0x200, 1), Addr(0x9_0000 + 64 * (t as u64 + 1)), 8);
            }
        };
        emit(&mut b, first);
        b.int_ops(Pc::new(t as u16, 1), second - first);
        if second != first {
            emit(&mut b, second);
        }
        b.int_ops(Pc::new(t as u16, 2), ops - second);
        b.end_epoch();
    }
    b.end_parallel();
    b.finish()
}

/// Builds `threads` independent threads of `ops` instructions each — the
/// embarrassingly-parallel upper bound.
pub fn independent(threads: usize, ops: usize) -> TraceProgram {
    let mut b = ProgramBuilder::new("synthetic-independent");
    b.begin_parallel();
    for t in 0..threads {
        b.begin_epoch();
        for i in 0..ops {
            let pc = Pc::new(t as u16, (i % 32) as u16);
            match i % 6 {
                0 => b.load(pc, Addr(0xA_0000 + t as u64 * 0x2000 + (i as u64 % 64) * 8), 8),
                1 => b.branch(pc, i % 3 == 0),
                _ => b.int_alu(pc),
            }
        }
        b.end_epoch();
    }
    b.end_parallel();
    b.finish()
}

/// Builds threads that each enter a latch-protected critical section
/// around a shared read-modify-write — escaped synchronization plus a
/// real dependence, the combination that exercises checkpoint placement.
pub fn latched_rmw(threads: usize, ops: usize, rmw_at: Position) -> TraceProgram {
    let mut b = ProgramBuilder::new("synthetic-latched-rmw");
    b.begin_parallel();
    for t in 0..threads {
        b.begin_epoch();
        let at = (rmw_at.clamp(0.0, 1.0) * ops as f64) as usize;
        b.int_ops(Pc::new(t as u16, 0), at);
        b.latch_acquire(Pc::new(0x300, 0), LatchId(9));
        b.load(Pc::new(0x300, 1), Addr(0xB_0000), 8);
        b.int_ops(Pc::new(0x300, 2), 4);
        b.store(Pc::new(0x300, 3), Addr(0xB_0000), 8);
        b.latch_release(Pc::new(0x300, 4), LatchId(9));
        b.int_ops(Pc::new(t as u16, 1), ops - at);
        b.end_epoch();
    }
    b.end_parallel();
    b.finish()
}

/// Builds a mostly sequential program: a sequential region of `4 * ops`
/// instructions, a parallel region of one epoch, another sequential
/// region, `threads` parallel epochs of `ops` instructions with a shared
/// read-modify-write, and a sequential tail with a latched critical
/// section. Loads stride over a footprint larger than a test-sized L1,
/// so misses stall the lone thread. Everything but the wide region runs
/// one epoch at a time — the regime of serialized runs and of the tails
/// of parallel regions.
pub fn sequential_heavy(threads: usize, ops: usize) -> TraceProgram {
    fn serial(b: &mut ProgramBuilder, module: u16, ops: usize) {
        for i in 0..ops {
            let pc = Pc::new(module, (i % 64) as u16);
            match i % 7 {
                0 => b.load(pc, Addr(0xC_0000 + (i as u64 * 40) % 0x4000), 8),
                3 => b.store(pc, Addr(0xD_0000 + (i as u64 % 256) * 8), 8),
                5 => b.branch(pc, i % 3 == 0),
                _ => b.int_alu(pc),
            }
        }
    }
    let mut b = ProgramBuilder::new("synthetic-sequential-heavy");
    serial(&mut b, 0x100, 4 * ops);
    b.begin_parallel();
    b.begin_epoch();
    serial(&mut b, 0x101, ops);
    b.end_epoch();
    b.end_parallel();
    serial(&mut b, 0x102, ops);
    b.begin_parallel();
    for t in 0..threads {
        b.begin_epoch();
        serial(&mut b, t as u16, ops / 2);
        b.load(Pc::new(0x103, 0), Addr(0xE_0000), 8);
        b.store(Pc::new(0x103, 1), Addr(0xE_0000), 8);
        serial(&mut b, t as u16, ops / 2);
        b.end_epoch();
    }
    b.end_parallel();
    serial(&mut b, 0x104, ops / 2);
    b.latch_acquire(Pc::new(0x104, 100), LatchId(3));
    b.load(Pc::new(0x104, 101), Addr(0xE_0000), 8);
    b.store(Pc::new(0x104, 102), Addr(0xE_0000), 8);
    b.latch_release(Pc::new(0x104, 103), LatchId(3));
    serial(&mut b, 0x104, ops / 2);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpConfig, CmpSimulator, SpacingPolicy, SubThreadConfig};

    fn machine() -> CmpConfig {
        let mut c = CmpConfig::test_small();
        c.subthreads.spacing = SpacingPolicy::Every(500);
        c
    }

    #[test]
    fn shared_dependence_counts_and_sizes() {
        let p = shared_dependences(4, 5000, &[Dependence::new(0.2, 0.8)]);
        let s = p.stats();
        assert_eq!(s.epochs, 4);
        assert_eq!(s.spec_loads, 4);
        assert_eq!(s.spec_stores, 4);
        assert!((s.avg_epoch_ops() - 5002.0).abs() < 2.0);
    }

    #[test]
    fn independent_threads_scale_cleanly() {
        // Long enough that per-CPU cold-start (instruction and data
        // cache warming, replicated on every core) amortizes.
        let p = independent(4, 20_000);
        let r = CmpSimulator::new(machine()).run(&p);
        assert_eq!(r.violations.total(), 0);
        let serial = crate::experiment::serialize_program(&p);
        let rs = CmpSimulator::new(machine()).run(&serial);
        let speedup = rs.total_cycles as f64 / r.total_cycles as f64;
        assert!(speedup > 3.0, "speedup {speedup}");
    }

    #[test]
    fn pipeline_late_load_benefits_from_subthreads() {
        let p = pipeline(4, 20_000, 0.85, 0.90);
        let mut aon = machine();
        aon.subthreads = SubThreadConfig::disabled();
        let r_sub = CmpSimulator::new(machine()).run(&p);
        let r_aon = CmpSimulator::new(aon).run(&p);
        assert!(r_sub.breakdown.failed < r_aon.breakdown.failed);
        assert!(r_sub.total_cycles <= r_aon.total_cycles);
    }

    #[test]
    fn latched_rmw_regression_checkpoints_avoid_critical_sections() {
        // Regression test: a violation rewinding into a *completed*
        // critical section used to replay an unbalanced latch release.
        // Tiny spacing maximizes the chance of a checkpoint landing
        // inside the section if the guard were missing.
        let p = latched_rmw(6, 3000, 0.5);
        let mut cfg = machine();
        cfg.subthreads = SubThreadConfig {
            contexts: 8,
            spacing: SpacingPolicy::Every(3),
            exhaustion: crate::ExhaustionPolicy::Merge,
        };
        let r = CmpSimulator::new(cfg).run(&p);
        assert_eq!(r.committed_epochs, 6);
        assert!(r.latch_acquisitions >= 6, "every epoch entered its critical section");
    }

    #[test]
    fn latched_rmw_under_all_policies() {
        let p = latched_rmw(5, 2000, 0.7);
        for contexts in [1u8, 4, 8] {
            for exhaustion in [crate::ExhaustionPolicy::Merge, crate::ExhaustionPolicy::Stop] {
                let mut cfg = machine();
                cfg.subthreads =
                    SubThreadConfig { contexts, spacing: SpacingPolicy::Every(7), exhaustion };
                let r = CmpSimulator::new(cfg).run(&p);
                assert_eq!(r.committed_epochs, 5, "contexts={contexts} {exhaustion:?}");
            }
        }
    }
}
