//! The workloads the MiniDB and simulator micro-benchmarks used to drive,
//! kept as correctness tests: B+-tree point operations with and without
//! trace recording, ascending inserts after a bulk load, the test-scale
//! TPC-C load, NEW ORDER recording, the dependence-free synthetic fast
//! path and shared-counter violation churn.

use subthreads::core::experiment::{serialize_program, ExperimentKind};
use subthreads::core::synthetic::{shared_dependences, Dependence};
use subthreads::core::{CmpConfig, CmpSimulator, SimReport, SpacingPolicy};
use subthreads::minidb::tpcc::consistency;
use subthreads::minidb::{
    BTree, Env, PageAlloc, Tpcc, TpccConfig, Transaction, SPAWN_OVERHEAD_OPS,
};
use subthreads::trace::{Addr, OpKind, OpSink, Pc, ProgramBuilder, Region, TraceProgram};

const ROW: usize = 64;

/// A row that names its key, so a lookup can prove it found the right one.
fn row(key: u64) -> [u8; ROW] {
    let mut r = [(key % 251) as u8; ROW];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r
}

/// A tree holding the even keys `0, 2, .., 2(n-1)`.
fn tree_with(n: u64) -> (Env, PageAlloc, BTree) {
    let mut env = Env::new();
    let alloc = PageAlloc::new(&mut env, 1);
    let tree = BTree::create(&mut env, &alloc, ROW as u16, 2);
    for k in 0..n {
        assert!(tree.insert(&mut env, &alloc, k * 2, &row(k * 2)));
    }
    (env, alloc, tree)
}

fn keys_from(env: &mut Env, tree: &BTree, from: u64) -> Vec<u64> {
    let mut keys = Vec::new();
    tree.scan_from(env, from, |_, k, _| {
        keys.push(k);
        true
    });
    keys
}

fn op_log(program: &TraceProgram) -> Vec<String> {
    program.iter_ops().map(|o| format!("{o:?}")).collect()
}

#[test]
fn point_gets_find_every_even_key_and_miss_every_odd_one() {
    let (mut env, _alloc, tree) = tree_with(5000);
    let mut buf = [0u8; ROW];
    for k in 0..10_000u64 {
        let found = tree.get(&mut env, k, &mut buf);
        assert_eq!(found, k % 2 == 0, "key {k}");
        if found {
            assert_eq!(buf, row(k), "key {k} returned another row");
        }
    }
    assert_eq!(tree.count(&mut env), 5000);
    assert!(tree.check_invariants(&mut env).is_empty());
}

#[test]
fn recording_a_lookup_does_not_change_its_result() {
    let (mut raw, _a, raw_tree) = tree_with(2000);
    let (mut rec, _b, rec_tree) = tree_with(2000);
    rec.rec.start("lookups", false);
    let mut k = 1u64;
    for _ in 0..500 {
        k = k.wrapping_mul(2862933555777941757).wrapping_add(3037000493) % 4000;
        let (mut x, mut y) = ([0u8; ROW], [0u8; ROW]);
        assert_eq!(raw_tree.get(&mut raw, k, &mut x), rec_tree.get(&mut rec, k, &mut y), "key {k}");
        assert_eq!(x, y, "key {k}");
    }
    let program = rec.rec.finish();
    assert!(program.total_ops() > 500, "every lookup is recorded");
    assert!(!raw.rec.recording());
}

#[test]
fn recorded_lookups_only_read_memory() {
    let (mut env, _alloc, tree) = tree_with(3000);
    env.rec.start("lookups", false);
    let mut buf = [0u8; ROW];
    for k in (0..6000).step_by(7) {
        tree.get(&mut env, k, &mut buf);
    }
    let program = env.rec.finish();
    assert!(program.iter_ops().any(|o| o.is_load()));
    assert!(!program.iter_ops().any(|o| o.is_store()), "a B+-tree descent stores nothing");
}

#[test]
fn ascending_inserts_after_a_bulk_load_split_cleanly() {
    let (mut env, alloc, tree) = tree_with(10_000);
    for k in 0..1000u64 {
        assert!(tree.insert(&mut env, &alloc, 1_000_000 + k, &row(1_000_000 + k)));
    }
    assert!(tree.check_invariants(&mut env).is_empty());
    assert_eq!(tree.count(&mut env), 11_000);
    let tail = keys_from(&mut env, &tree, 1_000_000);
    assert_eq!(tail, (1_000_000..1_001_000).collect::<Vec<_>>());
    assert_eq!(tree.min_from(&mut env, 19_999).map(|(k, _)| k), Some(1_000_000));
}

#[test]
fn reinserting_a_key_is_refused_and_keeps_the_old_row() {
    let (mut env, alloc, tree) = tree_with(1000);
    assert!(!tree.insert(&mut env, &alloc, 500, &[0xEE; ROW]));
    let mut buf = [0u8; ROW];
    assert!(tree.get(&mut env, 500, &mut buf));
    assert_eq!(buf, row(500));
    assert_eq!(tree.count(&mut env), 1000);
}

#[test]
fn deleted_ranges_leave_gaps_that_scans_skip() {
    let (mut env, _alloc, tree) = tree_with(4000);
    for k in (1000..3000).step_by(2) {
        assert!(tree.delete(&mut env, k));
    }
    assert!(!tree.delete(&mut env, 1000), "already gone");
    assert_eq!(tree.count(&mut env), 3000);
    assert!(tree.check_invariants(&mut env).is_empty());
    assert_eq!(tree.min_from(&mut env, 999).map(|(k, _)| k), Some(3000));
    let scanned = keys_from(&mut env, &tree, 0);
    assert_eq!(scanned.len(), 3000);
    assert!(scanned.windows(2).all(|w| w[0] < w[1]));
    assert!(!scanned.iter().any(|k| (1000..3000).contains(k)));
}

#[test]
fn recorded_inserts_trace_identically_on_identical_trees() {
    let record = || {
        let (mut env, alloc, tree) = tree_with(2000);
        env.rec.start("inserts", false);
        for k in 0..300u64 {
            tree.insert(&mut env, &alloc, 100_000 + k, &row(k));
        }
        env.rec.finish()
    };
    let (a, b) = (record(), record());
    assert!(a.iter_ops().any(|o| o.is_store()));
    assert_eq!(op_log(&a), op_log(&b));
}

#[test]
fn test_scale_load_is_consistent_and_unrecorded() {
    let mut tpcc = Tpcc::new(TpccConfig::test());
    assert!(!tpcc.env.rec.recording(), "the initial load runs with recording off");
    consistency::check(&mut tpcc).expect("freshly loaded database is consistent");
    assert!(tpcc.tables.district.count(&mut tpcc.env) >= tpcc.cfg.districts as u64);
}

#[test]
fn recorded_new_order_epochs_open_with_spawn_overhead() {
    let mut tpcc = Tpcc::new(TpccConfig::test());
    let tls = tpcc.record(Transaction::NewOrder, 1);
    let plain = tpcc.record_plain(Transaction::NewOrder, 1);
    assert!(plain.regions.iter().all(|r| matches!(r, Region::Sequential(_))));
    let epochs: Vec<_> = tls
        .regions
        .iter()
        .filter_map(|r| match r {
            Region::Parallel(es) => Some(es),
            Region::Sequential(_) => None,
        })
        .flatten()
        .collect();
    assert!(epochs.len() > 1, "NEW ORDER's item loop is parallelized");
    for e in epochs {
        assert!(e.len() > SPAWN_OVERHEAD_OPS);
        assert!(e.ops[..SPAWN_OVERHEAD_OPS]
            .iter()
            .all(|o| matches!(o.kind(), OpKind::IntAlu { .. })));
    }
}

fn machine() -> CmpConfig {
    let mut c = CmpConfig::paper_default();
    c.subthreads.spacing = SpacingPolicy::EvenDivision;
    c.max_cycles = 500_000_000;
    c
}

/// A dependence-free compute program: the simulator's fast path.
fn independent(epochs: usize, ops: usize) -> TraceProgram {
    let mut b = ProgramBuilder::new("independent");
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

fn assert_clean(r: &SimReport, epochs: u64) {
    assert_eq!(r.committed_epochs, epochs);
    assert_eq!(r.breakdown.total(), r.total_cycles * r.cpus as u64);
    assert!(r.protocol_errors.is_empty(), "{:?}", r.protocol_errors);
    assert!(r.audit_failures.is_empty(), "{:?}", r.audit_failures);
    assert!(r.livelocks.is_empty());
}

#[test]
fn dependence_free_program_commits_without_violations() {
    let program = independent(8, 20_000);
    let r = CmpSimulator::new(machine()).run(&program);
    assert_clean(&r, 8);
    assert_eq!(r.violations.total(), 0);
    assert_eq!(r.breakdown.failed, 0);
    assert_eq!(r.program_ops, program.total_ops() as u64);
    assert_eq!(r.dispatched_ops, r.program_ops, "nothing is re-executed");
}

#[test]
fn dependence_free_program_runs_faster_in_parallel() {
    let program = independent(8, 20_000);
    let parallel = CmpSimulator::new(machine()).run(&program);
    let serial = CmpSimulator::new(machine()).run(&serialize_program(&program));
    assert!(
        parallel.total_cycles * 2 < serial.total_cycles,
        "{} parallel vs {} serialized cycles on {} CPUs",
        parallel.total_cycles,
        serial.total_cycles,
        parallel.cpus
    );
}

fn churn() -> TraceProgram {
    // Every thread read-modify-writes one shared location mid-thread.
    shared_dependences(8, 4000, &[Dependence::new(0.5, 0.5)])
}

#[test]
fn shared_counter_churn_violates_and_still_commits_everything() {
    let r = CmpSimulator::new(machine()).run(&churn());
    assert_clean(&r, 8);
    assert!(r.violations.total() > 0, "the shared counter must conflict");
    assert!(r.breakdown.failed > 0, "rewound work is billed as failed");
    assert!(r.dispatched_ops > r.program_ops, "rewound work is re-executed");
}

#[test]
fn subthreads_waste_no_more_work_than_whole_thread_restarts() {
    let program = shared_dependences(8, 20_000, &[Dependence::new(0.2, 0.8)]);
    let run = |kind: ExperimentKind| CmpSimulator::new(kind.configure(&machine())).run(&program);
    let (whole, sub) = (run(ExperimentKind::NoSubThread), run(ExperimentKind::Baseline));
    assert_clean(&whole, 8);
    assert_clean(&sub, 8);
    assert!(whole.violations.total() > 0);
    assert!(
        sub.dispatched_ops <= whole.dispatched_ops,
        "sub-threads re-executed {} ops, whole-thread restarts {}",
        sub.dispatched_ops - sub.program_ops,
        whole.dispatched_ops - whole.program_ops
    );
}

#[test]
fn simulating_a_cloned_program_matches_the_original() {
    let program = churn();
    let a = CmpSimulator::new(machine()).run(&program);
    let b = CmpSimulator::new(machine()).run(&program.clone());
    assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
}
