//! Property tests for the snapshot codec: round-tripping arbitrary
//! programs through the mapped reader, the definition of program
//! fingerprints, plus rejection of corrupted and truncated containers.

use proptest::collection::vec;
use proptest::prelude::*;
use tls_core::experiment::{serialize_view, BenchmarkPrograms};
use tls_harness::codec::{
    decode_container, digest_pair, encode_pair_file, fingerprint_view, parse_pair_layout,
    sealed_digest, validate_bank, PairEncoder, SnapshotError, CHECKSUM_LEN, HEADER_LEN,
    KIND_TRACE_PAIR,
};
use tls_harness::mapped::{MapOutcome, TraceView};
use tls_trace::{Addr, Epoch, LatchId, OpSink, Pc, ProgramBuilder, Region, TraceOp, TraceProgram};

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

/// A program of any region sequence: each `(parallel, epochs)` is a
/// sequential region of the epochs' ops, or a parallel region of the
/// epochs (possibly none, possibly empty ones).
fn regions(name: &str, shapes: &[(bool, Vec<Vec<OpDesc>>)]) -> TraceProgram {
    let epoch = |ops: &[OpDesc]| Epoch::new(ops.iter().map(|&d| op(d)).collect());
    let regions = shapes
        .iter()
        .map(|(parallel, epochs)| match parallel {
            false => Region::Sequential(epoch(&epochs.concat())),
            true => Region::Parallel(epochs.iter().map(|e| epoch(e)).collect()),
        })
        .collect();
    TraceProgram::new(name, regions)
}

/// Writes `bytes` as a snapshot file under `tag` and opens it with the
/// mapped reader. A mapped view comes back as the owned pair it serves.
fn open_bytes(tag: &str, bytes: &[u8], key: u64) -> Result<BenchmarkPrograms, MapOutcome> {
    let path = std::env::temp_dir().join(format!("tls-codec-{tag}-{}.trace", std::process::id()));
    std::fs::write(&path, bytes).expect("write snapshot");
    let outcome = TraceView::open(&path, key);
    let _ = std::fs::remove_file(&path);
    match outcome {
        MapOutcome::Mapped(view) => {
            Ok(BenchmarkPrograms { plain: view.plain().to_program(), tls: view.tls().to_program() })
        }
        other => Err(other),
    }
}

/// The verify-first reference chain of checks on a snapshot, in memory:
/// framing, seal and key, then the layout, then every record.
fn reference_open(bytes: &[u8], key: u64) -> Result<(), SnapshotError> {
    let payload = decode_container(bytes, KIND_TRACE_PAIR, key)?;
    let layout = parse_pair_layout(payload)?;
    validate_bank(layout.bank(payload))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The streaming writer's bytes open as the pair it was given, and
    /// the digest it returns is the one a separate walk over those bytes
    /// computes. The bytes are exactly what the writer recognizes as its
    /// own, and flipping any one of them makes them not so.
    #[test]
    fn streamed_bytes_open_and_digest_as_written(
        plain in vec((any::<bool>(), vec(vec(op_desc(), 0..6), 0..4)), 0..4),
        tls in vec((any::<bool>(), vec(vec(op_desc(), 0..6), 0..4)), 0..4),
        key in any::<u64>(),
        pos_seed in any::<u64>(),
        mask in 1u8..255,
    ) {
        let pair = BenchmarkPrograms { plain: regions("plain-prog", &plain), tls: regions("tls", &tls) };
        let encoder = PairEncoder::new(key, pair.plain.view(), pair.tls.view());
        let mut bytes = Vec::new();
        let digest = encoder.write_to(&mut bytes).expect("a Vec takes every write");
        prop_assert_eq!(bytes.len(), encoder.file_len());
        let opened = open_bytes("streamed", &bytes, key).expect("streamed bytes open");
        prop_assert!(opened.plain == pair.plain && opened.tls == pair.tls);
        let body = &bytes[..bytes.len() - CHECKSUM_LEN];
        let layout = parse_pair_layout(&body[HEADER_LEN..]).expect("layout");
        prop_assert_eq!(digest_pair(body, &layout), digest);
        prop_assert!(encoder.wrote(&bytes, &digest));
        let mut flipped = bytes.clone();
        flipped[(pos_seed % bytes.len() as u64) as usize] ^= mask;
        prop_assert!(!encoder.wrote(&flipped, &digest));
        prop_assert!(!encoder.wrote(&bytes[..bytes.len() - 1], &digest));
    }

    /// Fingerprints follow their definition on programs of any shape.
    /// Changing one word of any record, moving an epoch boundary by one
    /// op, making a parallel region sequential and renaming the program
    /// each change the fingerprint; a program's fingerprint equals its
    /// serialized form's exactly when it has no parallel region; and the
    /// trailer the writer seals, `fingerprint_view` and `digest_pair`
    /// agree on all four fingerprints of the pair.
    #[test]
    fn fingerprints_follow_their_definition(
        shapes in vec((any::<bool>(), vec(vec(op_desc(), 1..6), 1..4)), 1..5),
        pick in any::<u64>(),
        word in 0usize..2,
        bit in 0u32..64,
        suffix in any::<u8>(),
        key in any::<u64>(),
    ) {
        let program = regions("prog", &shapes);
        let fp = |p: &TraceProgram| fingerprint_view(&p.view());
        let serialized = |p: &TraceProgram| serialize_view(&p.view());
        let want = fp(&program);
        let parallel = program.regions.iter().position(|r| matches!(r, Region::Parallel(_)));

        // One word of one record: the address word where the record stays
        // valid, else a bit of its pc.
        let mut changed = program.clone();
        let ops: Vec<&mut TraceOp> = changed
            .regions
            .iter_mut()
            .flat_map(|r| match r {
                Region::Sequential(e) => std::slice::from_mut(e),
                Region::Parallel(es) => es.as_mut_slice(),
            })
            .flat_map(|e| e.ops.iter_mut())
            .collect();
        let n = ops.len() as u64;
        let op = ops.into_iter().nth((pick % n) as usize).expect("a record");
        let mut raw = op.to_raw();
        let at = 8 * word + (bit / 8) as usize;
        raw[at] ^= 1 << (bit % 8);
        *op = TraceOp::from_raw(raw).unwrap_or_else(|_| {
            let mut raw = op.to_raw();
            raw[(bit / 8 % 4) as usize] ^= 1 << (bit % 8);
            TraceOp::from_raw(raw).expect("any pc is valid")
        });
        prop_assert_ne!(fp(&changed), want, "a changed record");

        // An epoch boundary moved by one op: the first op of a parallel
        // region's second epoch joins its first.
        let mut moved = program.clone();
        let boundary = moved.regions.iter_mut().find_map(|r| match r {
            Region::Parallel(es) if es.len() > 1 => Some(es),
            _ => None,
        });
        if let Some(es) = boundary {
            let first = es[1].ops.remove(0);
            es[0].ops.push(first);
            prop_assert_ne!(fp(&moved), want, "a moved epoch boundary");
        }

        // A parallel region made sequential; every other region kept.
        if let Some(at) = parallel {
            let mut sequential = program.clone();
            sequential.regions[at] = serialized(&program).regions[at].clone();
            prop_assert_ne!(fp(&sequential), want, "a parallel region made sequential");
        }

        let mut renamed = program.clone();
        renamed.name = format!("prog{suffix}");
        prop_assert_ne!(fp(&renamed), want, "a renamed program");

        prop_assert_eq!(fp(&serialized(&program)) == want, parallel.is_none());

        let pair = BenchmarkPrograms { plain: program, tls: changed };
        let encoder = PairEncoder::new(key, pair.plain.view(), pair.tls.view());
        let mut bytes = Vec::new();
        let written = encoder.write_to(&mut bytes).expect("a Vec takes every write");
        let body = &bytes[..bytes.len() - CHECKSUM_LEN];
        let layout = parse_pair_layout(&body[HEADER_LEN..]).expect("layout");
        let sealed = sealed_digest(&bytes, &layout);
        let viewed = [
            fp(&pair.plain),
            fp(&pair.tls),
            fp(&serialized(&pair.plain)),
            fp(&serialized(&pair.tls)),
        ];
        prop_assert_eq!(
            [sealed.plain, sealed.tls, sealed.plain_serialized, sealed.tls_serialized],
            viewed
        );
        prop_assert_eq!(sealed, written);
        prop_assert_eq!(digest_pair(body, &layout), written);
    }

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
        let opened = open_bytes("round-trip", &bytes, key).expect("round trip");
        prop_assert_eq!(&opened.plain.name, &pair.plain.name);
        prop_assert_eq!(&opened.tls.name, &pair.tls.name);
        prop_assert!(opened.plain == pair.plain && opened.tls == pair.tls);
        // Re-encoding what was served is bit-identical: the format is
        // canonical.
        prop_assert_eq!(encode_pair_file(key, &opened), bytes);
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
        match open_bytes("corrupt", &bad, key) {
            // The expected outcome: the container is rejected.
            Err(MapOutcome::Bad(_)) => {}
            Err(other) => prop_assert!(false, "a corrupt snapshot produced {:?}", other),
            // A checksum collision would have to reproduce the exact
            // original data to be accepted silently.
            Ok(opened) => {
                prop_assert_eq!(encode_pair_file(key, &opened), good);
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
        prop_assert!(reference_open(&good[..cut], key).is_err(), "cut at {}", cut);
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
            prop_assert!(reference_open(&bytes, other).is_err());
        }
    }
}
