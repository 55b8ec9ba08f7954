//! Zero-copy read-path properties: a memory-mapped [`TraceView`] must be
//! observationally identical to the pair the snapshot was written from,
//! and every malformed container must be rejected with a *typed* error
//! before any op is served in place.

use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;
use tls_core::experiment::{serialize_view, BenchmarkPrograms};
use tls_harness::codec::{
    self, digest_pair, encode_pair_file, fingerprint_view, PairDigest, SnapshotError, CHECKSUM_LEN,
    HEADER_LEN, KIND_TRACE_PAIR,
};
use tls_harness::mapped::{MapOutcome, TraceView};
use tls_trace::{
    Addr, Epoch, LatchId, OpSink, Pc, ProgramBuilder, ProgramView, Region, RegionView, TraceOp,
    TraceProgram,
};

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

fn program(name: &str, prefix: &[OpDesc], epochs: &[Vec<OpDesc>]) -> TraceProgram {
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
    b.finish()
}

fn temp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tls-mapped-{tag}-{}.trace", std::process::id()))
}

/// Writes `bytes` under `tag` and opens the file as a mapped view.
fn open_bytes(tag: &str, bytes: &[u8], key: u64) -> MapOutcome {
    let path = temp_file(tag);
    std::fs::write(&path, bytes).expect("write snapshot");
    let outcome = TraceView::open(&path, key);
    let _ = std::fs::remove_file(&path);
    outcome
}

/// Seals a deliberately tampered container as a writer would have: the
/// fingerprint trailer is recomputed from the tampered content wherever
/// the layout still parses, then the seal, so the tampered field itself —
/// not the seal or the trailer — is what the opener trips over.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len() - CHECKSUM_LEN;
    if let Ok(layout) = codec::parse_pair_layout(&bytes[HEADER_LEN..n]) {
        let d = digest_pair(&bytes[..n], &layout);
        let at = HEADER_LEN + layout.bank_offset + 16 * layout.total_ops;
        for (i, fp) in [d.plain, d.tls, d.plain_serialized, d.tls_serialized].iter().enumerate() {
            bytes[at + 8 * i..at + 8 * i + 8].copy_from_slice(&fp.to_le_bytes());
        }
    }
    let sum = codec::seal(&bytes[..n]).to_le_bytes();
    bytes[n..].copy_from_slice(&sum);
}

/// A generated region: `(shape, epochs)`. Shape 0 is a sequential
/// region of the epochs' ops, 1 a parallel region of the epochs (some of
/// them empty), 2 a parallel region with no epochs at all, and 3 a
/// parallel region of 50 epochs cycling through the generated ones.
type RegionDesc = (u8, Vec<Vec<OpDesc>>);

fn shaped(name: &str, regions: &[RegionDesc], sequential_only: bool) -> TraceProgram {
    let epoch = |ops: &[OpDesc]| Epoch::new(ops.iter().map(|&d| op(d)).collect());
    let regions = regions
        .iter()
        .map(|(shape, epochs)| match if sequential_only { 0 } else { shape % 4 } {
            0 => Region::Sequential(epoch(&epochs.concat())),
            1 => Region::Parallel(epochs.iter().map(|e| epoch(e)).collect()),
            2 => Region::Parallel(Vec::new()),
            _ => Region::Parallel(
                (0..50)
                    .map(|i| epochs.get(i % epochs.len().max(1)).map_or(epoch(&[]), |e| epoch(e)))
                    .collect(),
            ),
        })
        .collect();
    TraceProgram::new(name, regions)
}

/// The verify-first reference order of checks on a snapshot.
fn reference_open(bytes: &[u8], key: u64) -> Result<(), SnapshotError> {
    let payload = codec::decode_container(bytes, KIND_TRACE_PAIR, key)?;
    let layout = codec::parse_pair_layout(payload)?;
    codec::validate_bank(layout.bank(payload))
}

/// The op runs of a view, region by region.
fn runs<'a>(view: &ProgramView<'a>) -> Vec<Vec<&'a [TraceOp]>> {
    view.regions
        .iter()
        .map(|r| match r {
            RegionView::Sequential(e) => vec![*e],
            RegionView::Parallel(es) => es.clone(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The recompute gives the seal and all four fingerprints the
    /// separate passes give, the open serves the same digest from the
    /// sealed trailer, and the mapped serialized programs equal
    /// `serialize_view` op for op while borrowing the mapping.
    #[test]
    fn digest_and_serialized_views_match_the_reference(
        regions in vec((0u8..4, vec(vec((any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>(), any::<u64>(), any::<u16>()), 0..4), 0..5)), 0..6),
        key in any::<u64>(),
    ) {
        let pair = BenchmarkPrograms {
            plain: shaped("plain-prog", &regions, true),
            tls: shaped("tls-prog", &regions, false),
        };
        let bytes = encode_pair_file(key, &pair);
        let body = &bytes[..bytes.len() - CHECKSUM_LEN];
        let layout = codec::parse_pair_layout(&body[HEADER_LEN..]).expect("layout");
        let serialized_fp = |p: &TraceProgram| fingerprint_view(&serialize_view(&p.view()).view());
        let want = PairDigest {
            checksum: codec::seal(body),
            plain: fingerprint_view(&pair.plain.view()),
            tls: fingerprint_view(&pair.tls.view()),
            plain_serialized: serialized_fp(&pair.plain),
            tls_serialized: serialized_fp(&pair.tls),
        };
        prop_assert_eq!(digest_pair(body, &layout), want);

        let MapOutcome::Mapped(view) = open_bytes("digest", &bytes, key) else {
            panic!("fresh snapshot must map");
        };
        prop_assert_eq!(view.digest, want);
        let bank = view.bank().as_ptr_range();
        for (tls, program) in [(false, &pair.plain), (true, &pair.tls)] {
            let owned = serialize_view(&program.view());
            let mapped = view.serialized(tls);
            prop_assert_eq!(mapped.name, owned.name.as_str());
            prop_assert_eq!(runs(&mapped), runs(&owned.view()));
            for run in runs(&mapped).concat() {
                let r = run.as_ptr_range();
                prop_assert!(
                    run.is_empty() || (bank.start <= r.start && r.end <= bank.end),
                    "a serialized run of {} ops lies outside the mapped bank",
                    run.len()
                );
            }
        }
    }

    /// The mapped view and the pair the snapshot was written from agree
    /// on every observable: programs, fingerprints, op counts.
    #[test]
    fn mapped_view_equals_the_source_pair(
        prefix in vec((any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>(), any::<u64>(), any::<u16>()), 0..10),
        epochs in vec(vec((any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>(), any::<u64>(), any::<u16>()), 0..12), 0..4),
        key in any::<u64>(),
    ) {
        let pair = BenchmarkPrograms {
            plain: program("plain-prog", &prefix, &[]),
            tls: program("tls-prog", &prefix, &epochs),
        };
        let bytes = encode_pair_file(key, &pair);
        let MapOutcome::Mapped(view) = open_bytes("eq", &bytes, key) else {
            panic!("fresh snapshot must map");
        };
        prop_assert!(view.plain().to_program() == pair.plain);
        prop_assert!(view.tls().to_program() == pair.tls);
        prop_assert_eq!(view.plain().total_ops(), pair.plain.view().total_ops());
        prop_assert_eq!(view.tls().total_ops(), pair.tls.view().total_ops());
        // The sealed fingerprints are the source programs' own.
        prop_assert_eq!(view.digest.plain, fingerprint_view(&pair.plain.view()));
        prop_assert_eq!(view.digest.tls, fingerprint_view(&pair.tls.view()));
        prop_assert_eq!(view.digest.plain, fingerprint_view(&view.plain()));
    }

    /// Every byte-boundary truncation is rejected by the mapped opener —
    /// never served, never a panic. (Zero-length files read as missing:
    /// an empty mapping carries no container at all.)
    #[test]
    fn truncations_never_map(cut_seed in any::<u64>()) {
        let pair = BenchmarkPrograms {
            plain: program("p", &[(0, 1, 1, 1, 0, 0)], &[]),
            tls: program("t", &[], &[vec![(2, 1, 2, 1, 64, 0)]]),
        };
        let bytes = encode_pair_file(7, &pair);
        let cut = 1 + (cut_seed % (bytes.len() as u64 - 1)) as usize;
        match open_bytes("cut", &bytes[..cut], 7) {
            MapOutcome::Bad(_) => {}
            other => prop_assert!(false, "a {cut}-byte prefix produced {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mutated snapshots — bit flips, truncations, appended bytes, and
    /// bit flips under a resealed checksum that reach the layout parser
    /// and the record validator — never panic the opener, and it reports
    /// the same error as the verify-first reference order.
    #[test]
    fn mutated_snapshots_fail_like_the_reference_order(
        mutation in 0u8..4,
        at in any::<u64>(),
        bit in 0u8..8,
        extra in vec(any::<u8>(), 1..24),
    ) {
        let pair = BenchmarkPrograms {
            plain: program("p", &[(0, 1, 1, 1, 0, 0), (4, 1, 2, 1, 0, 0)], &[]),
            tls: shaped(
                "t",
                &[
                    (0, vec![vec![(2, 1, 2, 1, 64, 0)]]),
                    (2, vec![]),
                    (1, vec![vec![], vec![(3, 2, 1, 7, 72, 1)]]),
                ],
                false,
            ),
        };
        let mut bytes = encode_pair_file(5, &pair);
        let (file_len, body_len) = (bytes.len(), bytes.len() - CHECKSUM_LEN);
        let flip = |bytes: &mut Vec<u8>, len: usize| bytes[at as usize % len] ^= 1 << bit;
        match mutation {
            0 => flip(&mut bytes, file_len),
            1 => bytes.truncate(1 + at as usize % (file_len - 1)),
            2 => bytes.extend_from_slice(&extra),
            _ => {
                flip(&mut bytes, body_len);
                reseal(&mut bytes);
            }
        }
        match (open_bytes("fuzz", &bytes, 5), reference_open(&bytes, 5)) {
            (MapOutcome::Bad(got), Err(want)) => prop_assert_eq!(got.code(), want.code()),
            (MapOutcome::Mapped(view), Ok(())) => {
                prop_assert_eq!(view.digest.plain, fingerprint_view(&view.plain()));
                prop_assert_eq!(view.digest.tls, fingerprint_view(&view.tls()));
            }
            (other, want) => prop_assert!(false, "open gave {other:?}, reference {want:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A corrupt record under a valid seal gets exactly the typed error
    /// `validate_bank` gives for the bank — whether it lies in a record
    /// pair of the sealing loop or is an odd last record — and a record
    /// the change leaves valid still maps.
    #[test]
    fn a_corrupt_record_under_a_valid_seal_fails_like_validate_bank(
        regions in vec((0u8..4, vec(vec((any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>(), any::<u64>(), any::<u16>()), 1..4), 1..5)), 1..4),
        at in any::<u64>(),
        field in 0u8..3,
        value in any::<u8>(),
    ) {
        let pair = BenchmarkPrograms {
            plain: shaped("plain-prog", &regions, true),
            tls: shaped("tls-prog", &regions, false),
        };
        let mut bytes = encode_pair_file(3, &pair);
        let payload = &bytes[HEADER_LEN..bytes.len() - CHECKSUM_LEN];
        let layout = codec::parse_pair_layout(payload).expect("layout");
        let record = HEADER_LEN + layout.bank_offset + 16 * (at % layout.total_ops as u64) as usize;
        match field {
            0 => bytes[record + 4] = 7 + value % 249,
            1 => bytes[record + 5] = value,
            _ => bytes[record + 8 + (value % 8) as usize] = value | 1,
        }
        reseal(&mut bytes);
        let payload = &bytes[HEADER_LEN..bytes.len() - CHECKSUM_LEN];
        match (open_bytes("record", &bytes, 3), codec::validate_bank(layout.bank(payload))) {
            (MapOutcome::Bad(got), Err(want)) => prop_assert_eq!(got, want),
            (MapOutcome::Mapped(_), Ok(())) => {}
            (other, want) => prop_assert!(false, "open gave {other:?}, validate_bank {want:?}"),
        }
    }
}

#[test]
fn foreign_endian_snapshots_are_rejected_with_a_typed_error() {
    let pair = BenchmarkPrograms {
        plain: program("p", &[(0, 1, 1, 1, 0, 0)], &[]),
        tls: program("t", &[], &[vec![(2, 1, 2, 1, 64, 0)]]),
    };
    let mut bytes = encode_pair_file(9, &pair);
    // The endianness stamp is the first payload field; byte-swap it as a
    // big-endian writer would have, and reseal the checksum so the stamp
    // itself is what the opener rejects.
    bytes.swap(HEADER_LEN, HEADER_LEN + 1);
    reseal(&mut bytes);
    match open_bytes("endian", &bytes, 9) {
        MapOutcome::Bad(e) => assert_eq!(e.code(), "foreign-endian", "{e}"),
        other => panic!("foreign-endian snapshot produced {other:?}"),
    }
}

#[test]
fn wrong_record_size_is_rejected_with_a_typed_error() {
    let pair = BenchmarkPrograms {
        plain: program("p", &[(0, 1, 1, 1, 0, 0)], &[]),
        tls: program("t", &[], &[vec![(2, 1, 2, 1, 64, 0)]]),
    };
    let mut bytes = encode_pair_file(11, &pair);
    // The declared record size (payload offset 2) guards layout drift: a
    // snapshot written by a build with a different `TraceOp` must not be
    // reinterpreted.
    bytes[HEADER_LEN + 2] = 24;
    reseal(&mut bytes);
    match open_bytes("recsize", &bytes, 11) {
        MapOutcome::Bad(e) => assert_eq!(e.code(), "bad-record-size", "{e}"),
        other => panic!("wrong-record-size snapshot produced {other:?}"),
    }
}

#[test]
fn declared_op_count_must_match_the_structure() {
    let pair = BenchmarkPrograms {
        plain: program("p", &[(0, 1, 1, 1, 0, 0)], &[]),
        tls: program("t", &[], &[vec![(2, 1, 2, 1, 64, 0)]]),
    };
    let mut bytes = encode_pair_file(13, &pair);
    // total_ops lives at payload offset 8; inflating it desynchronizes
    // the bank from the structure section.
    let at = HEADER_LEN + 8;
    let declared = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    bytes[at..at + 8].copy_from_slice(&(declared + 1).to_le_bytes());
    reseal(&mut bytes);
    match open_bytes("opcount", &bytes, 13) {
        // Depending on where the mismatch is caught the code differs,
        // but it must be a structured rejection.
        MapOutcome::Bad(e) => assert!(
            matches!(e.code(), "op-count-mismatch" | "length-mismatch" | "truncated"),
            "unexpected code {} ({e})",
            e.code()
        ),
        other => panic!("op-count-tampered snapshot produced {other:?}"),
    }
}
