//! Idle-cycle fast-forward is a pure host-time optimization: for any
//! program, machine configuration, and fault plan, the full
//! [`SimReport`] must be byte-identical with `fast_forward` on and off.
//! A deterministic 100-combination grid pins the shapes that exercise
//! every skip source (ROB drain, MSHR fills, homefree-token release,
//! chaos-injector due times), and a property test extends the grid with
//! randomly generated programs.

use proptest::prelude::*;
use std::panic::AssertUnwindSafe;
use subthreads::core::synthetic::{
    independent, latched_rmw, pipeline, sequential_heavy, shared_dependences, Dependence,
};
use subthreads::core::{
    CmpConfig, CmpSimulator, ExhaustionPolicy, FaultPlan, Observer, RunOptions, SecondaryPolicy,
    SpacingPolicy, SubThreadConfig, ALL_FAULT_CLASSES,
};
use subthreads::trace::{Addr, Epoch, OpSink, Pc, ProgramBuilder, Region, TraceOp, TraceProgram};

/// Runs `program` under `cfg` twice — fast-forward on and off — and
/// asserts the serialized reports are identical.
fn assert_equivalent(cfg: CmpConfig, program: &TraceProgram, plan: Option<FaultPlan>, what: &str) {
    let on = RunOptions { plan, audit: false, oracle: false, ..RunOptions::default() };
    let off = RunOptions { fast_forward: false, ..on.clone() };
    let sim = CmpSimulator::new(cfg);
    let a = serde_json::to_string(&sim.run_with(program, on)).expect("serialize report");
    let b = serde_json::to_string(&sim.run_with(program, off)).expect("serialize report");
    assert_eq!(a, b, "fast-forward changed the report for {what}");
}

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
        // Miss-bound and dependence-free: the pure fast-forward regime.
        ("independent", independent(4, 400)),
        // Producer/consumer chain: violations, rewinds, stalls.
        ("pipeline", pipeline(4, 500, 0.2, 0.8)),
        // Mid-thread read-modify-write under a latch.
        ("latched_rmw", latched_rmw(4, 400, 0.5)),
        // Two clustered dependences per thread.
        (
            "shared_deps",
            shared_dependences(4, 600, &[Dependence::new(0.3, 0.4), Dependence::new(0.7, 0.6)]),
        ),
        // One epoch at a time for most of the run: lone-epoch stretches.
        ("sequential_heavy", sequential_heavy(4, 300)),
    ]
}

/// `None` plus three generated chaos plans (every fault class, due
/// times spread across the run).
fn plans() -> Vec<(&'static str, Option<FaultPlan>)> {
    let mut v: Vec<(&'static str, Option<FaultPlan>)> = vec![("no_faults", None)];
    for (name, seed) in [("chaos_a", 11u64), ("chaos_b", 1234), ("chaos_c", 987_654_321)] {
        v.push((name, Some(FaultPlan::generate(seed, &ALL_FAULT_CLASSES, 40_000, 6))));
    }
    v
}

/// The pinned grid: 5 programs x 5 machines x 4 fault plans = 100
/// combinations, every one compared as a full serialized report.
#[test]
fn fastforward_equivalence_grid() {
    let mut combos = 0usize;
    for (pname, program) in &programs() {
        for (mname, cfg) in machines() {
            for (fname, plan) in plans() {
                assert_equivalent(cfg, program, plan, &format!("{pname}/{mname}/{fname}"));
                combos += 1;
            }
        }
    }
    assert!(combos >= 100, "grid shrank to {combos} combinations");
}

/// The panic message of a run of `program` that must overrun
/// `max_cycles`; `observed` attaches an observer, which steps every
/// cycle on its own.
fn overrun_message(
    cfg: CmpConfig,
    program: &TraceProgram,
    fast_forward: bool,
    observed: bool,
) -> String {
    let opts = RunOptions { fast_forward, ..RunOptions::default() };
    let sim = CmpSimulator::new(cfg);
    let mut obs = Observer::new(cfg.cpus, 64, 1024);
    let run = AssertUnwindSafe(|| sim.run_observed(program, opts, observed.then_some(&mut obs)));
    let payload = std::panic::catch_unwind(run).expect_err("the run must overrun max_cycles");
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload.downcast::<&str>().map(|m| m.to_string()).expect("text panic"),
    }
}

/// Twelve sequential regions of 200 single-cycle ALU ops over the same
/// PCs: after the first region warms the instruction cache no cycle is
/// quiet, so a lone-epoch stretch would run to the end of its region
/// (and commit it) if it did not stop at the bound.
fn sequential_regions() -> TraceProgram {
    let ops: Vec<TraceOp> = (0..200).map(|i| TraceOp::int_alu(Pc::new(0, i % 32), 1)).collect();
    let regions = (0..12).map(|_| Region::Sequential(Epoch::new(ops.clone()))).collect();
    TraceProgram::new("sequential-regions", regions)
}

/// A run past `max_cycles` panics with the same message whether or not
/// quiet cycles are skipped and whether a lone epoch runs in stretches or
/// (observed) cycle by cycle: fast-forward and stretches both clamp to the
/// bound. The bounds sweep a miss-bound program, so some fall inside
/// skipped spans, and a program of sequential regions, so most fall
/// inside stretches.
#[test]
fn max_cycles_overrun_panics_identically_with_and_without_fast_forward() {
    let cases = [(independent(4, 400), 20..400), (sequential_regions(), 20..700)];
    for (program, bounds) in &cases {
        for bound in bounds.clone().step_by(13) {
            let mut cfg = CmpConfig::test_small();
            cfg.max_cycles = bound;
            let on = overrun_message(cfg, program, true, false);
            let off = overrun_message(cfg, program, false, false);
            let per_cycle = overrun_message(cfg, program, true, true);
            assert!(on.contains(&format!("exceeded {bound} cycles")), "unexpected panic: {on}");
            assert_eq!(on, off, "{}: max_cycles = {bound}", program.name);
            assert_eq!(on, per_cycle, "{}: max_cycles = {bound}", program.name);
        }
    }
}

#[derive(Debug, Clone)]
enum GenOp {
    Alu(u8),
    Load(u8),
    Store(u8),
    Branch(bool),
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        4 => (1u8..=4).prop_map(GenOp::Alu),
        2 => (0u8..32).prop_map(GenOp::Load),
        1 => (0u8..32).prop_map(GenOp::Store),
        1 => any::<bool>().prop_map(GenOp::Branch),
    ]
}

fn gen_program() -> impl Strategy<Value = TraceProgram> {
    proptest::collection::vec(proptest::collection::vec(gen_op(), 10..200), 2..6).prop_map(
        |epochs| {
            let mut b = ProgramBuilder::new("ff-random");
            b.begin_parallel();
            for (e, ops) in epochs.iter().enumerate() {
                b.begin_epoch();
                for (i, op) in ops.iter().enumerate() {
                    let pc = Pc::new(e as u16, i as u16);
                    match op {
                        GenOp::Alu(n) => b.int_ops(pc, *n as usize),
                        GenOp::Load(slot) => b.load(pc, Addr(0x4000 + 8 * *slot as u64), 8),
                        GenOp::Store(slot) => b.store(pc, Addr(0x4000 + 8 * *slot as u64), 8),
                        GenOp::Branch(t) => b.branch(pc, *t),
                    }
                }
                b.end_epoch();
            }
            b.end_parallel();
            b.finish()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs, optionally under a seeded fault plan, across
    /// two machine shapes each.
    #[test]
    fn fastforward_equivalence_random(program in gen_program(), seed in any::<u64>()) {
        let plan = (seed % 2 == 0)
            .then(|| FaultPlan::generate(seed, &ALL_FAULT_CLASSES, 20_000, 4));
        for (mname, cfg) in [&machines()[0], &machines()[2]] {
            assert_equivalent(*cfg, &program, plan.clone(), &format!("random/{mname}"));
        }
    }
}
