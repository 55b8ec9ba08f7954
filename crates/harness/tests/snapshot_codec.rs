//! Property tests for the snapshot codec: round-tripping arbitrary
//! programs, plus rejection of corrupted and truncated containers.

use proptest::collection::vec;
use proptest::prelude::*;
use tls_core::experiment::BenchmarkPrograms;
use tls_harness::codec::{decode_pair_file, encode_pair_file, program_bytes};
use tls_trace::{Addr, LatchId, OpSink, Pc, ProgramBuilder, TraceOp, TraceProgram};

/// A generated op: `(class, module, site, arg, addr, dep)`.
type OpDesc = (u8, u16, u16, u8, u64, u16);

fn op(d: OpDesc) -> TraceOp {
    let (class, module, site, arg, addr, dep) = d;
    let pc = Pc::new(module, site);
    let op = match class % 7 {
        0 => TraceOp::int_alu(pc, arg),
        1 => TraceOp::fp_alu(pc, arg),
        2 => TraceOp::load(pc, Addr(addr), arg % 8 + 1),
        3 => TraceOp::store(pc, Addr(addr), arg % 8 + 1),
        4 => TraceOp::branch(pc, arg & 1 == 1),
        5 => TraceOp::latch_acquire(pc, LatchId((addr & 0xFFFF) as u16)),
        _ => TraceOp::latch_release(pc, LatchId((addr & 0xFFFF) as u16)),
    };
    op.with_dep(dep)
}

fn op_desc() -> impl Strategy<Value = OpDesc> {
    (any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>(), any::<u64>(), any::<u16>())
}

/// Assembles `(prefix, epochs, suffix)` into a program: an optional
/// sequential region, an optional parallel region, and an optional
/// trailing sequential region — every shape the builder can produce.
fn program(
    name: &str,
    prefix: &[OpDesc],
    epochs: &[Vec<OpDesc>],
    suffix: &[OpDesc],
) -> TraceProgram {
    let mut b = ProgramBuilder::new(name);
    for &d in prefix {
        b.emit(op(d));
    }
    if !epochs.is_empty() {
        b.begin_parallel();
        for epoch in epochs {
            b.begin_epoch();
            for &d in epoch {
                b.emit(op(d));
            }
            b.end_epoch();
        }
        b.end_parallel();
    }
    for &d in suffix {
        b.emit(op(d));
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_pairs_round_trip(
        prefix in vec(op_desc(), 0..12),
        epochs in vec(vec(op_desc(), 0..16), 0..5),
        suffix in vec(op_desc(), 0..12),
        key in any::<u64>(),
    ) {
        let pair = BenchmarkPrograms {
            plain: program("plain-prog", &prefix, &[], &suffix),
            tls: program("tls-prog", &prefix, &epochs, &suffix),
        };
        let bytes = encode_pair_file(key, &pair);
        let decoded = decode_pair_file(&bytes, key).expect("round trip");
        prop_assert_eq!(&decoded.plain.name, &pair.plain.name);
        prop_assert_eq!(&decoded.tls.name, &pair.tls.name);
        prop_assert_eq!(program_bytes(&decoded.plain), program_bytes(&pair.plain));
        prop_assert_eq!(program_bytes(&decoded.tls), program_bytes(&pair.tls));
        // Re-encoding the decode is bit-identical: the format is canonical.
        prop_assert_eq!(encode_pair_file(key, &decoded), bytes);
    }

    #[test]
    fn corrupt_bytes_never_decode_to_different_data(
        epochs in vec(vec(op_desc(), 0..12), 1..4),
        key in any::<u64>(),
        pos_seed in any::<u64>(),
        mask in 1u8..255,
    ) {
        let pair = BenchmarkPrograms {
            plain: program("p", &[], &[], &[]),
            tls: program("t", &[], &epochs, &[]),
        };
        let good = encode_pair_file(key, &pair);
        let mut bad = good.clone();
        let pos = (pos_seed % bad.len() as u64) as usize;
        bad[pos] ^= mask;
        match decode_pair_file(&bad, key) {
            // The expected outcome: the container is rejected.
            Err(_) => {}
            // A checksum collision would have to reproduce the exact
            // original data to be accepted silently.
            Ok(decoded) => {
                prop_assert_eq!(encode_pair_file(key, &decoded), good);
            }
        }
    }

    #[test]
    fn truncations_are_always_rejected(
        epochs in vec(vec(op_desc(), 0..12), 1..4),
        key in any::<u64>(),
        len_seed in any::<u64>(),
    ) {
        let pair = BenchmarkPrograms {
            plain: program("p", &[], &[], &[]),
            tls: program("t", &[], &epochs, &[]),
        };
        let good = encode_pair_file(key, &pair);
        let cut = (len_seed % good.len() as u64) as usize;
        prop_assert!(decode_pair_file(&good[..cut], key).is_err(), "cut at {}", cut);
    }

    #[test]
    fn wrong_keys_are_always_rejected(
        epochs in vec(vec(op_desc(), 0..8), 1..3),
        key in any::<u64>(),
        other in any::<u64>(),
    ) {
        let pair = BenchmarkPrograms {
            plain: program("p", &[], &[], &[]),
            tls: program("t", &[], &epochs, &[]),
        };
        let bytes = encode_pair_file(key, &pair);
        if key != other {
            prop_assert!(decode_pair_file(&bytes, other).is_err());
        }
    }
}
