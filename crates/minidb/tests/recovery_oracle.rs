//! The recovery oracle: after a simulated crash at **every** durable-log
//! LSN, REDO recovery must rebuild logical contents byte-identical to
//! the shadow journal — under torn writes, lost writes and bit flips.
//! (The CI recovery-chaos leg runs the same oracle over a wider
//! seed grid through `cargo run --bin recovery`.)

use tls_core::{DiskFaultClass, DiskFaultPlan, ALL_DISK_FAULT_CLASSES};
use tls_minidb::oracle::{run_indexed_workload, run_workload};
use tls_minidb::tpcc::consistency;
use tls_minidb::{
    recover, BTree, Env, OptLevel, PageAlloc, Pager, PagerCounters, Tpcc, TpccConfig,
};

const FRAMES: usize = 20;
const MTRS: usize = 24;

#[test]
fn clean_run_recovers_at_every_crash_point() {
    let w = run_workload(1, MTRS, FRAMES, DiskFaultPlan::default(), false);
    let c = w.pager().counters();
    assert!(c.evictions > 0, "working set must exceed the pool: {c:?}");
    assert!(c.flushes > 0, "dirty pages must reach disk: {c:?}");
    assert_eq!(c.mtrs, MTRS as u64);
    let points = w.check_all_crash_points().expect("oracle green");
    assert!(points > MTRS as u64, "at least one record per mtr");
}

#[test]
fn every_fault_class_recovers_at_every_crash_point() {
    for (si, seed) in [7u64, 101, 9000].into_iter().enumerate() {
        let classes: &[DiskFaultClass] = match si {
            0 => &[DiskFaultClass::TornWrite],
            1 => &[DiskFaultClass::LostWrite, DiskFaultClass::BitFlip],
            _ => &ALL_DISK_FAULT_CLASSES,
        };
        let plan = DiskFaultPlan::generate(seed, classes, 400, 24);
        assert!(!plan.is_empty());
        let w = run_workload(seed, MTRS, FRAMES, plan, false);
        w.check_all_crash_points()
            .unwrap_or_else(|e| panic!("seed {seed} classes {classes:?}: {e}"));
    }
}

#[test]
fn indexed_workload_recovers_index_contents_at_every_crash_point() {
    // The indexed workload maintains a secondary index over tree 0 in
    // the same mini-transaction as every base insert/delete; the shadow
    // journal models the index too, so every crash-point diff covers
    // recovered index contents byte-for-byte — under the full fault mix.
    let plan = DiskFaultPlan::generate(13, &ALL_DISK_FAULT_CLASSES, 400, 24);
    let w = run_indexed_workload(13, MTRS, FRAMES, plan, false);
    assert_eq!(w.trees().len(), 3, "two base trees plus the index");
    let c = w.pager().counters();
    assert!(c.evictions > 0, "index pages must join the eviction traffic: {c:?}");
    w.check_all_crash_points().expect("indexed oracle green");
}

#[test]
fn corrupt_disk_reads_are_never_silently_served() {
    // Fault every single write: every read-in of a faulted page must be
    // detected (checksum or stale LSN) and repaired, never served raw.
    let plan = DiskFaultPlan::generate(42, &ALL_DISK_FAULT_CLASSES, 64, 64);
    let w = run_workload(42, MTRS, 22, plan, false);
    let c = w.pager().counters();
    let faults = w.pager().disk().faults_injected().len() as u64;
    assert!(faults > 0, "the plan must actually fire");
    assert_eq!(
        c.recovery_replays,
        c.checksum_failures + c.stale_reads,
        "every rejected read must be repaired: {c:?}"
    );
    // Live contents stayed correct throughout (crash at the final LSN
    // recovers to exactly the final shadow state).
    w.check_crash_point(w.last_lsn()).expect("final state intact");
}

#[test]
fn untracked_corruption_is_quarantined_with_a_reason() {
    let mut w = run_workload(5, 4, FRAMES, DiskFaultPlan::default(), false);
    // Corrupt the bootstrap envelope of a region that was never modified
    // after attach: no full-page image exists in the log, so recovery
    // must quarantine it rather than serve garbage.
    let untouched = {
        let wal = w.pager().wal();
        let logged: std::collections::HashSet<u64> =
            wal.records().iter().filter_map(|r| r.payload.region()).collect();
        w.pager()
            .disk()
            .regions()
            .into_iter()
            .find(|r| !logged.contains(r))
            .expect("some page untouched in 4 mtrs")
    };
    let k = w.last_lsn();
    let pager = w.env.pager_mut().expect("paged");
    let mut bad = pager.disk().image_of(untouched).expect("bootstrapped");
    bad[20] ^= 0x10;
    pager.disk_mut().bootstrap(untouched, bad);
    let world = w.pager().crash_point(k);
    assert_eq!(world.quarantined.len(), 1, "{:?}", world.quarantined);
    assert_eq!(world.quarantined[0].region, untouched);
    assert!(world.quarantined[0].reason.contains("no valid disk image"));
    // And the oracle reports it rather than passing silently.
    let err = w.check_crash_point(k).expect_err("quarantine must surface");
    assert!(err.contains("quarantined"), "{err}");
}

#[test]
fn observation_does_not_change_recorded_traces() {
    // Record the same paged pin/miss/evict sequence with the event
    // buffer on and off: the raw op streams must be identical (events
    // are host-side only — zero trace, zero cycle drift).
    let run = |observe: bool| {
        let mut env = Env::new();
        let alloc = PageAlloc::new(&mut env, 1);
        let tree = BTree::create(&mut env, &alloc, 16, 2);
        for k in 0..600u64 {
            tree.insert(&mut env, &alloc, k, &[7u8; 16]);
        }
        let pager = Box::new(Pager::new(&mut env, 4, DiskFaultPlan::default(), observe));
        env.attach_pager(pager, &[tree.meta_region()]);
        env.rec.start("obs-drift", false);
        let mut buf = [0u8; 16];
        // One mtr per key range: pins stay within the 4-frame pool while
        // successive ranges rotate leaves through it, forcing evictions.
        for chunk in 0..6u64 {
            env.mtr_begin();
            for k in (chunk * 100..chunk * 100 + 100).step_by(10) {
                assert!(tree.get(&mut env, k, &mut buf));
            }
            env.mtr_end();
        }
        let program = env.rec.finish();
        let events = env.pager_mut().unwrap().take_events();
        let ops: Vec<_> = program.iter_ops().map(|o| format!("{o:?}")).collect();
        (ops, events, env.pager().unwrap().counters())
    };
    let (ops_on, events_on, counters_on) = run(true);
    let (ops_off, events_off, counters_off) = run(false);
    assert_eq!(ops_on, ops_off, "observation changed the recorded trace");
    assert_eq!(counters_on, counters_off);
    assert!(!events_on.is_empty(), "evictions must have been observed");
    assert!(events_off.is_empty());
}

#[test]
fn paged_and_direct_runs_have_identical_logical_contents() {
    // The pager is a residency layer: it must not change what the
    // engine computes, only how its accesses are recorded. Compare the
    // full logical contents of a paged oracle run against recovery at
    // the final LSN (which equals the shadow replay) — and against a
    // pool large enough to never evict.
    let seed = 77;
    let small = run_workload(seed, MTRS, 22, DiskFaultPlan::default(), false);
    let large = run_workload(seed, MTRS, 4096, DiskFaultPlan::default(), false);
    assert!(small.pager().counters().evictions > 0);
    assert_eq!(large.pager().counters().evictions, 0, "pool holds everything");
    let k_small = small.last_lsn();
    let k_large = large.last_lsn();
    assert_eq!(k_small, k_large, "logging must not depend on pool size");
    small.check_crash_point(k_small).expect("small pool green");
    large.check_crash_point(k_large).expect("large pool green");
}

#[test]
fn recovered_trees_pass_structural_invariants() {
    let w = run_workload(3, MTRS, FRAMES, DiskFaultPlan::default(), false);
    let world = w.check_crash_point(w.last_lsn()).expect("green");
    let mut renv = Env::new();
    renv.mem = world.mem;
    for tree in w.trees() {
        let (meta, _) = tree.meta_region();
        let t = BTree::open_existing(meta, tree.value_size(), tree.module());
        let errors = t.check_invariants(&mut renv);
        assert!(errors.is_empty(), "{errors:?}");
    }
}

/// Runs 40 mix transactions on `t` through a pool of about 60% of its
/// pages, with every write faulted somewhere in the first 2000, then
/// crashes at the final LSN: every table must recover byte-identical to
/// the live database. Returns the pool's counters.
fn paged_mix_recovers_at_the_final_lsn(t: &mut Tpcc) -> PagerCounters {
    let pages = t.env.registered_pages();
    assert!(pages > 60, "test-scale TPC-C should span many pages, got {pages}");
    let plan = DiskFaultPlan::generate(11, &ALL_DISK_FAULT_CLASSES, 2000, 64);
    t.attach_pager(pages * 3 / 5, plan, false);
    for _ in 0..40 {
        let txn = t.next_mix_transaction();
        t.run_one(txn);
    }
    let c = t.pager_counters().expect("paged");
    assert_eq!(c.mtrs, 40);
    assert!(c.evictions > 0, "pool must thrash: {c:?}");
    assert!(c.flushes > 0, "dirty pages must reach disk: {c:?}");
    consistency::check(t).expect("consistent while paged");

    let pager = t.env.pager().expect("paged");
    let world = pager.crash_point(pager.last_lsn());
    assert!(world.quarantined.is_empty(), "{:?}", world.quarantined);
    assert_eq!(world.durable_mtrs, 40, "every transaction's commit is durable");
    let mut renv = Env::new();
    renv.mem = world.mem;
    let trees = t.tables.all();
    let pager = t.env.detach_pager(); // live scans run direct
    for tree in trees {
        let (meta, _) = tree.meta_region();
        let recovered = BTree::open_existing(meta, tree.value_size(), tree.module());
        let mut live_rows = Vec::new();
        tree.scan_from(&mut t.env, 0, |env, k, addr| {
            live_rows.push((k, env.mem.bytes(addr, tree.value_size() as usize)));
            true
        });
        let mut rec_rows = Vec::new();
        recovered.scan_from(&mut renv, 0, |env, k, addr| {
            rec_rows.push((k, env.mem.bytes(addr, tree.value_size() as usize)));
            true
        });
        assert_eq!(live_rows, rec_rows, "module {:#x} diverged", tree.module());
    }
    drop(pager);
    c
}

#[test]
fn tpcc_runs_paged_under_faults_and_recovers_at_the_final_lsn() {
    paged_mix_recovers_at_the_final_lsn(&mut Tpcc::new(TpccConfig::test()));
}

#[test]
fn pagers_attached_to_forks_recover_like_fresh_populations() {
    // Recording forks one populated database per half; a pager attached
    // to a fork must see exactly the pages a fresh population has, and
    // its paged run must leave the populated image untouched.
    let mut populated = Tpcc::new(TpccConfig::test());
    let fresh = paged_mix_recovers_at_the_final_lsn(&mut Tpcc::new(TpccConfig::test()));
    let opts = TpccConfig::test().opts;
    for _ in 0..2 {
        let forked = paged_mix_recovers_at_the_final_lsn(&mut populated.fork(opts));
        assert_eq!(forked, fresh, "a fork pages like a fresh population");
    }
    paged_mix_recovers_at_the_final_lsn(&mut populated.fork(OptLevel::none()));
}

#[test]
fn recover_of_empty_inputs_is_empty() {
    let world = recover(&std::collections::HashMap::new(), &[]);
    assert_eq!(world.durable_mtrs, 0);
    assert!(world.quarantined.is_empty());
    assert_eq!(world.durable_lsn, 0);
    assert_eq!(world.images_applied + world.deltas_applied, 0);
}
