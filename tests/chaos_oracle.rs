//! Chaos property tests: whatever the program and whatever the seeded
//! fault plan, the TLS machine must degrade gracefully — every epoch
//! still commits, the invariant auditor stays silent, the sequential
//! differential oracle matches the speculative memory image, and the
//! fault ledger accounts for every scheduled event.
//!
//! Failures shrink to a minimal (program, plan-seed) pair because the
//! whole plan sweep sits inside the property.

use proptest::prelude::*;
use subthreads::core::{
    CmpConfig, CmpSimulator, ExhaustionPolicy, FaultClass, FaultPlan, MemoryModel, PredictorConfig,
    RunOptions, SimReport, SpacingPolicy, VPredictConfig, ALL_FAULT_CLASSES,
    STORE_BUFFER_FAULT_CLASSES,
};
use subthreads::trace::{Addr, OpSink, Pc, ProgramBuilder, TraceProgram};

#[derive(Debug, Clone)]
enum GenOp {
    Alu(u8),
    Load(u8),
    Store(u8),
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        4 => (1u8..=4).prop_map(GenOp::Alu),
        2 => (0u8..16).prop_map(GenOp::Load),
        1 => (0u8..16).prop_map(GenOp::Store),
    ]
}

fn gen_program() -> impl Strategy<Value = TraceProgram> {
    // 2..5 epochs of 10..120 ops over a 16-slot shared address pool:
    // small enough to sweep 32 fault plans per case, shared enough that
    // real RAW dependences (and thus real rewinds) are common.
    proptest::collection::vec(proptest::collection::vec(gen_op(), 10..120), 2..5).prop_map(
        |epochs| {
            let mut b = ProgramBuilder::new("chaos-random");
            b.begin_parallel();
            for (e, ops) in epochs.iter().enumerate() {
                b.begin_epoch();
                for (i, op) in ops.iter().enumerate() {
                    let pc = Pc::new(e as u16, i as u16);
                    match op {
                        GenOp::Alu(n) => b.int_ops(pc, *n as usize),
                        GenOp::Load(slot) => b.load(pc, Addr(0x7000 + 8 * *slot as u64), 8),
                        GenOp::Store(slot) => b.store(pc, Addr(0x7000 + 8 * *slot as u64), 8),
                    }
                }
                b.end_epoch();
            }
            b.end_parallel();
            b.finish()
        },
    )
}

fn machine() -> CmpConfig {
    let mut cfg = CmpConfig::test_small();
    cfg.max_cycles = 5_000_000;
    cfg
}

fn tso_machine() -> CmpConfig {
    let mut cfg = machine();
    cfg.memory_model = MemoryModel::Tso { buffer_entries: 4 };
    cfg
}

/// Every machine of the mechanism product: sub-thread spacing ×
/// context-exhaustion policy × synchronizing predictor × value predictor
/// × memory model (SC, and TSO with a 1- and a 4-entry buffer).
fn mechanism_product() -> Vec<(String, CmpConfig)> {
    let mut out = Vec::new();
    for spacing in [SpacingPolicy::Every(16), SpacingPolicy::EvenDivision] {
        for exhaustion in [ExhaustionPolicy::Merge, ExhaustionPolicy::Stop] {
            for sync in [false, true] {
                for value in [false, true] {
                    for model in [
                        MemoryModel::Sc,
                        MemoryModel::Tso { buffer_entries: 1 },
                        MemoryModel::Tso { buffer_entries: 4 },
                    ] {
                        let mut cfg = machine();
                        cfg.subthreads.spacing = spacing;
                        cfg.subthreads.exhaustion = exhaustion;
                        if sync {
                            cfg.predictor = PredictorConfig::aggressive();
                        }
                        if value {
                            // Eager: covers loads after one confirmation,
                            // so short programs see hits and mispredicts.
                            cfg.vpredict =
                                VPredictConfig { threshold: 1, ..VPredictConfig::prophet() };
                        }
                        cfg.memory_model = model;
                        let name = format!(
                            "{spacing:?}/{exhaustion:?}/sync={sync}/value={value}/{model:?}"
                        );
                        out.push((name, cfg));
                    }
                }
            }
        }
    }
    out
}

/// What a run under `class` (`None`: no fault) must show. Whatever the
/// fault: no audit failure, every epoch committed, the accounting
/// identity, and every one of the plan's `scheduled` faults applied or
/// skipped. Per class: an applied dropped store-buffer entry is detected
/// as a store-flow serializability breach; everything else is survived
/// with no breach, and with no protocol error unless a latch hazard was
/// injected (its victim's release is one by design).
fn check_chaos_run(
    r: &SimReport,
    class: Option<FaultClass>,
    epochs: u64,
    scheduled: u64,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(
        r.audit_failures.is_empty(),
        "{what}: invariant auditor tripped: {:?}",
        r.audit_failures
    );
    prop_assert_eq!(r.committed_epochs, epochs, "{}: lost epochs", what);
    prop_assert_eq!(r.breakdown.total(), r.total_cycles * r.cpus as u64);
    prop_assert_eq!(r.faults.applied() + r.faults.skipped, scheduled);
    if class == Some(FaultClass::DroppedEntry) {
        if r.faults.applied() > 0 {
            prop_assert!(
                r.serializability_breaches > 0,
                "{what}: {} dropped store(s) went undetected",
                r.faults.applied()
            );
            prop_assert!(
                r.protocol_errors.iter().any(|e| e.message.contains("store-flow")),
                "{what}: breach without a store-flow protocol error: {:?}",
                r.protocol_errors
            );
        } else {
            prop_assert_eq!(r.serializability_breaches, 0);
        }
    } else {
        prop_assert_eq!(r.serializability_breaches, 0, "{}: must be survived, not flagged", what);
        if class != Some(FaultClass::LatchHazard) {
            prop_assert!(r.protocol_errors.is_empty(), "{what}: {:?}", r.protocol_errors);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn any_program_survives_32_seeded_fault_plans(program in gen_program()) {
        let epochs = program.stats().epochs as u64;
        let sim = CmpSimulator::new(machine());
        // Fault-free baseline fixes the horizon plans draw cycles from.
        let baseline = sim.run_with(
            &program,
            RunOptions { panic_on_audit_failure: false, ..RunOptions::default() },
        );
        prop_assert!(baseline.audit_failures.is_empty(),
            "fault-free baseline failed audit: {:?}", baseline.audit_failures);
        for seed in 0..32u64 {
            let plan = FaultPlan::generate(seed, &ALL_FAULT_CLASSES, baseline.total_cycles, 4);
            let n = plan.len() as u64;
            let r = sim.run_with(&program, RunOptions::chaos(plan));
            prop_assert!(r.audit_failures.is_empty(),
                "seed {seed}: auditor tripped: {:?}", r.audit_failures);
            prop_assert_eq!(r.committed_epochs, epochs, "seed {} lost epochs", seed);
            // Accounting identity survives faults.
            prop_assert_eq!(r.breakdown.total(), r.total_cycles * r.cpus as u64);
            // Every scheduled fault is accounted: applied or skipped.
            prop_assert_eq!(r.faults.applied() + r.faults.skipped, n);
        }
    }

    #[test]
    fn store_buffer_chaos_survives_or_detects_by_class(program in gen_program()) {
        // The three store-buffer fault classes have *per-class*
        // expectations on a TSO machine: a stuck or reordered drain is
        // an ordering hazard the protocol must absorb; a dropped buffer
        // entry is a lost store and must be *detected* by the
        // serializability auditor — as a structured protocol error,
        // never a panic — every single time one is applied.
        let epochs = program.stats().epochs as u64;
        let sim = CmpSimulator::new(tso_machine());
        let baseline = sim.run_with(
            &program,
            RunOptions { panic_on_audit_failure: false, ..RunOptions::default() },
        );
        prop_assert!(baseline.audit_failures.is_empty(),
            "fault-free TSO baseline failed audit: {:?}", baseline.audit_failures);
        prop_assert_eq!(baseline.serializability_breaches, 0);
        for seed in 0..16u64 {
            for class in STORE_BUFFER_FAULT_CLASSES {
                let plan = FaultPlan::generate(seed, &[class], baseline.total_cycles, 4);
                let n = plan.len() as u64;
                let r = sim.run_with(&program, RunOptions::chaos(plan));
                check_chaos_run(&r, Some(class), epochs, n, &format!("seed {seed} {class}"))?;
            }
        }
    }

    #[test]
    fn sabotaged_rewind_never_escapes_the_auditor(
        program in gen_program(),
        seed in 0u64..16,
    ) {
        // Break the protocol on purpose (rewinds skip the L2 state wash)
        // and inject a violation so a rewind definitely happens: the
        // auditor — not a downstream assert or the oracle alone — must
        // catch it.
        let sim = CmpSimulator::new(machine());
        let plan = FaultPlan::generate(seed, &[FaultClass::SpuriousPrimary], 2_000, 2);
        let opts = RunOptions {
            sabotage_rewind: true,
            panic_on_audit_failure: false,
            ..RunOptions::chaos(plan)
        };
        let r = sim.run_with(&program, opts);
        if r.faults.applied() > 0 {
            prop_assert!(!r.audit_failures.is_empty(),
                "a sabotaged rewind ran undetected ({} faults applied)",
                r.faults.applied());
            prop_assert!(r.audit_failures.iter().any(|f| f.contains("post-rewind")),
                "sabotage caught, but not by the post-rewind audit: {:?}",
                r.audit_failures);
        }
    }
}

proptest! {
    // Each case runs 48 machines × 10 fault settings: few cases keep the
    // debug-build suite fast.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn mechanism_product_survives_or_detects_every_fault_class(
        program in gen_program(),
        seed in 0u64..1_000,
    ) {
        // Mechanisms checked in combination, not in pairs: every machine
        // of the product runs fault-free and under each fault class,
        // with the auditor, the serializability audits and the
        // differential oracle armed.
        let epochs = program.stats().epochs as u64;
        for (name, cfg) in mechanism_product() {
            let sim = CmpSimulator::new(cfg);
            let baseline = sim.run_with(
                &program,
                RunOptions { panic_on_audit_failure: false, ..RunOptions::default() },
            );
            check_chaos_run(&baseline, None, epochs, 0, &format!("{name} fault-free"))?;
            for class in ALL_FAULT_CLASSES {
                let plan = FaultPlan::generate(seed, &[class], baseline.total_cycles, 2);
                let n = plan.len() as u64;
                let r = sim.run_with(&program, RunOptions::chaos(plan));
                check_chaos_run(&r, Some(class), epochs, n, &format!("{name} seed {seed} {class}"))?;
            }
        }
    }
}
