//! Property tests of the core timing model: whatever the instruction
//! stream, the pipeline must respect conservation and monotonicity laws.

use proptest::prelude::*;
use tls_cpu::{Core, CpuConfig};
use tls_trace::{Addr, Pc, TraceOp};

#[derive(Debug, Clone)]
enum GenOp {
    Int(u8, u8),
    Fp(u8, u8),
    Load(u8),
    Store(u8),
    Branch(bool),
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        5 => (1u8..=12, 0u8..8).prop_map(|(l, d)| GenOp::Int(l, d)),
        1 => (2u8..=20, 0u8..8).prop_map(|(l, d)| GenOp::Fp(l, d)),
        2 => (0u8..16).prop_map(GenOp::Load),
        1 => (0u8..16).prop_map(GenOp::Store),
        1 => any::<bool>().prop_map(GenOp::Branch),
    ]
}

fn to_trace(ops: &[GenOp]) -> Vec<TraceOp> {
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            let pc = Pc::new(1, (i % 48) as u16);
            match *op {
                GenOp::Int(l, d) => TraceOp::int_alu(pc, l).with_dep(d as u16),
                GenOp::Fp(l, d) => TraceOp::fp_alu(pc, l).with_dep(d as u16),
                GenOp::Load(s) => TraceOp::load(pc, Addr(0x1000 + s as u64 * 8), 8),
                GenOp::Store(s) => TraceOp::store(pc, Addr(0x1000 + s as u64 * 8), 8),
                GenOp::Branch(t) => TraceOp::branch(pc, t),
            }
        })
        .collect()
}

/// Runs `ops` to completion with a fixed memory latency; returns cycles.
fn run(cfg: CpuConfig, ops: &[TraceOp], mem_latency: u64) -> u64 {
    let mut core = Core::new(cfg);
    let mut next = 0;
    let mut cycle = 0u64;
    loop {
        core.begin_cycle(cycle);
        let r = core.retire();
        if next == ops.len() && r.rob_len == 0 {
            return cycle;
        }
        while next < ops.len() && core.can_dispatch() {
            core.dispatch(&ops[next], ops[next].kind(), |start, _, _| start + mem_latency);
            next += 1;
        }
        cycle += 1;
        assert!(cycle < 10_000_000, "pipeline wedged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Cycles are bounded below by width and above by fully-serial
    /// execution.
    #[test]
    fn cycles_within_physical_bounds(ops in proptest::collection::vec(gen_op(), 1..300)) {
        let trace = to_trace(&ops);
        let cfg = CpuConfig::paper_default();
        let cycles = run(cfg, &trace, 10);
        let n = trace.len() as u64;
        prop_assert!(cycles >= n / cfg.issue_width as u64);
        // Upper bound: every op fully serialized at its worst latency,
        // plus worst-case front-end stalls per op.
        let worst: u64 = trace.iter().map(|o| match o.kind() {
            tls_trace::OpKind::IntAlu { latency } | tls_trace::OpKind::FpAlu { latency } => {
                latency as u64
            }
            tls_trace::OpKind::Load { .. } => 10,
            _ => 1,
        }).sum();
        let stall_budget = n * (cfg.mispredict_penalty + cfg.icache_miss_penalty + 2);
        prop_assert!(cycles <= worst + stall_budget + 64,
            "cycles {cycles} vs bound {}", worst + stall_budget + 64);
    }

    /// Slower memory never makes the program finish earlier.
    #[test]
    fn memory_latency_is_monotone(
        ops in proptest::collection::vec(gen_op(), 1..200),
        lat_a in 1u64..50,
        lat_b in 1u64..50,
    ) {
        let trace = to_trace(&ops);
        let (lo, hi) = (lat_a.min(lat_b), lat_a.max(lat_b));
        let fast = run(CpuConfig::paper_default(), &trace, lo);
        let slow = run(CpuConfig::paper_default(), &trace, hi);
        prop_assert!(fast <= slow, "latency {lo} took {fast}, latency {hi} took {slow}");
    }

    /// A wider machine never loses to a narrower one.
    #[test]
    fn issue_width_is_monotone(ops in proptest::collection::vec(gen_op(), 1..200)) {
        let trace = to_trace(&ops);
        let mut narrow = CpuConfig::paper_default();
        narrow.issue_width = 1;
        let mut wide = CpuConfig::paper_default();
        wide.issue_width = 8;
        let n = run(narrow, &trace, 10);
        let w = run(wide, &trace, 10);
        prop_assert!(w <= n, "wide {w} vs narrow {n}");
    }

    /// Every dispatched instruction retires exactly once.
    #[test]
    fn dispatch_equals_retire(ops in proptest::collection::vec(gen_op(), 1..300)) {
        let trace = to_trace(&ops);
        let mut core = Core::new(CpuConfig::paper_default());
        let mut next = 0;
        let mut cycle = 0u64;
        loop {
            core.begin_cycle(cycle);
            let r = core.retire();
            if next == trace.len() && r.rob_len == 0 {
                break;
            }
            while next < trace.len() && core.can_dispatch() {
                core.dispatch(&trace[next], trace[next].kind(), |s, _, _| s + 5);
                next += 1;
            }
            cycle += 1;
        }
        prop_assert_eq!(core.stats().dispatched, trace.len() as u64);
        prop_assert_eq!(core.stats().retired, trace.len() as u64);
    }
}
