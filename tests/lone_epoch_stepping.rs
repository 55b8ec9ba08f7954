//! Lone-epoch stepping is a pure host-time optimization: while exactly
//! one epoch runs, the machine steps its CPU through a stretch of cycles
//! in one call instead of one machine cycle at a time. An attached
//! [`Observer`] keeps per-cycle stepping, so for any program the
//! unobserved report must equal the observed one byte for byte — across
//! machines whose mechanisms read the epoch's speculative state (value
//! prediction, the sync predictor, all-or-nothing TLS, the paper machine
//! under the auditor and oracle) and under seeded fault plans, whose
//! wake-ups must cut a stretch short.

use proptest::prelude::*;
use subthreads::core::{
    CmpConfig, CmpSimulator, FaultClass, FaultPlan, Observer, PredictorConfig, RunOptions,
    SubThreadConfig, VPredictConfig, ALL_FAULT_CLASSES,
};
use subthreads::trace::{
    Addr, Epoch, LatchId, OpSink, Pc, ProgramBuilder, Region, TraceOp, TraceProgram,
};

#[derive(Debug, Clone)]
enum GenOp {
    Alu(u8),
    Load(u8),
    Store(u8),
    Branch(bool),
    /// A latched read-modify-write of one slot under one of two latches.
    Latched(u8, bool),
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        4 => (1u8..=6).prop_map(GenOp::Alu),
        2 => (0u8..48).prop_map(GenOp::Load),
        1 => (0u8..48).prop_map(GenOp::Store),
        1 => any::<bool>().prop_map(GenOp::Branch),
        1 => ((0u8..48), any::<bool>()).prop_map(|(slot, latch)| GenOp::Latched(slot, latch)),
    ]
}

/// One region: sequential (`0`), a parallel region of one epoch (`1`),
/// or a parallel region of 2..=5 epochs (`2`).
fn gen_region() -> impl Strategy<Value = (u8, Vec<Vec<GenOp>>)> {
    (0u8..3, proptest::collection::vec(proptest::collection::vec(gen_op(), 5..150), 2..6))
}

/// The slots stride 72 bytes apart, more than a test-sized L1 holds, so
/// loads miss and the lone epoch's stretches end in quiet cycles.
fn emit(b: &mut ProgramBuilder, module: u16, ops: &[GenOp]) {
    let slot = |s: u8| Addr(0x6000 + 72 * s as u64);
    for (i, op) in ops.iter().enumerate() {
        let pc = Pc::new(module, i as u16);
        match *op {
            GenOp::Alu(n) => b.int_ops(pc, n as usize),
            GenOp::Load(s) => b.load(pc, slot(s), 8),
            GenOp::Store(s) => b.store(pc, slot(s), 8),
            GenOp::Branch(t) => b.branch(pc, t),
            GenOp::Latched(s, second) => {
                let latch = LatchId(if second { 2 } else { 1 });
                b.latch_acquire(Pc::new(0x200, 0), latch);
                b.load(Pc::new(0x200, 1), slot(s), 8);
                b.store(Pc::new(0x200, 2), slot(s), 8);
                b.latch_release(Pc::new(0x200, 3), latch);
            }
        }
    }
}

fn gen_program() -> impl Strategy<Value = TraceProgram> {
    proptest::collection::vec(gen_region(), 1..5).prop_map(|regions| {
        let mut b = ProgramBuilder::new("lone-random");
        for (r, (shape, epochs)) in regions.iter().enumerate() {
            let module = |e: usize| (r * 8 + e) as u16;
            match shape {
                0 => emit(&mut b, module(0), &epochs.concat()),
                _ => {
                    let n = if *shape == 1 { 1 } else { epochs.len() };
                    b.begin_parallel();
                    for (e, ops) in epochs.iter().take(n).enumerate() {
                        b.begin_epoch();
                        emit(&mut b, module(e), ops);
                        b.end_epoch();
                    }
                    b.end_parallel();
                }
            }
        }
        b.finish()
    })
}

/// The machines, each with whether its runs arm the auditor and oracle.
fn machines() -> Vec<(&'static str, CmpConfig, bool)> {
    let mut test = CmpConfig::test_small();
    test.max_cycles = 5_000_000;
    let mut paper = CmpConfig::paper_default();
    paper.max_cycles = test.max_cycles;
    let mut vpredict = test;
    vpredict.vpredict = VPredictConfig::prophet();
    let mut sync = test;
    sync.predictor = PredictorConfig::aggressive();
    let mut all_or_nothing = test;
    all_or_nothing.subthreads = SubThreadConfig::disabled();
    vec![
        ("test_small", test, false),
        ("paper_audited", paper, true),
        ("value_prediction", vpredict, false),
        ("sync_predictor", sync, false),
        ("all_or_nothing", all_or_nothing, false),
    ]
}

/// Asserts the unobserved report of `program` equals the report of a
/// run with an observer attached (which steps every cycle).
fn assert_lone_stepping_exact(
    cfg: CmpConfig,
    audited: bool,
    program: &TraceProgram,
    plan: Option<FaultPlan>,
    what: &str,
) {
    let opts = RunOptions {
        plan,
        audit: audited,
        oracle: audited,
        panic_on_audit_failure: false,
        ..RunOptions::default()
    };
    let sim = CmpSimulator::new(cfg);
    let plain = serde_json::to_string(&sim.run_with(program, opts.clone())).expect("serialize");
    let mut obs = Observer::new(cfg.cpus, 1 << 12, 1024);
    let observed = sim.run_observed(program, opts, Some(&mut obs));
    assert_eq!(
        plain,
        serde_json::to_string(&observed).expect("serialize"),
        "lone-epoch stepping changed the report for {what}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs of sequential, one-epoch and multi-epoch regions
    /// with latched sections, on every machine, with and without a
    /// seeded fault plan whose events land inside the run.
    #[test]
    fn lone_epoch_stepping_matches_per_cycle_stepping(
        program in gen_program(),
        seed in any::<u64>(),
    ) {
        let plan = FaultPlan::generate(seed, &ALL_FAULT_CLASSES, 2_500, 6);
        for (mname, cfg, audited) in machines() {
            assert_lone_stepping_exact(cfg, audited, &program, None, &format!("{mname}/no_faults"));
            let what = format!("{mname}/seed {seed}");
            assert_lone_stepping_exact(cfg, audited, &program, Some(plan.clone()), &what);
        }
    }
}

/// Six sequential regions of single-cycle ALU ops over the same PCs,
/// each with a latched section. After the first region warms the
/// instruction cache no cycle is quiet, so each region is one stretch
/// unless something cuts it.
fn alu_regions() -> TraceProgram {
    let alu = |n: u16| (0..n).map(|i| TraceOp::int_alu(Pc::new(0, i % 32), 1));
    let latch = LatchId(5);
    let mut ops: Vec<TraceOp> = alu(200).collect();
    ops.push(TraceOp::latch_acquire(Pc::new(1, 0), latch));
    ops.extend(alu(100));
    ops.push(TraceOp::latch_release(Pc::new(1, 1), latch));
    ops.extend(alu(100));
    let regions = (0..6).map(|_| Region::Sequential(Epoch::new(ops.clone()))).collect();
    TraceProgram::new("alu-regions", regions)
}

/// A fault falls due in the middle of a long stretch: the stretch must
/// end before it, or the token delay, the victim squeeze or the latch
/// hazard lands late. Each class is swept across the whole run.
#[test]
fn chaos_wakeups_cut_stretches_short() {
    let program = alu_regions();
    let (_, cfg, _) = machines()[0];
    let classes = [FaultClass::DelayedToken, FaultClass::VictimSqueeze, FaultClass::LatchHazard];
    for class in classes {
        for at in (1..700).step_by(23) {
            let plan = FaultPlan::single(class, at, 120);
            let what = format!("{class:?} at {at}");
            assert_lone_stepping_exact(cfg, false, &program, Some(plan), &what);
        }
    }
}
