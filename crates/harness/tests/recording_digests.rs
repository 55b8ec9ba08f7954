//! Pins what recording produces. The snapshot digest (`codec::digest_pair`:
//! container seal plus the four program fingerprints) of every
//! test-scale Figure-5 pair and of each CI sweep-grid PAYMENT seed is
//! compared with constants, through both recording entry points: the
//! store (on a two-worker pool, so misses overlap) and
//! `Tpcc::record_pair`. The four fingerprints are what report keys and
//! the sweep rows' `fingerprint` field are built from. In release builds
//! the fingerprints of the seven paper-scale Figure-5 pairs are pinned
//! too, recorded through the store.

use tls_core::experiment::BenchmarkPrograms;
use tls_harness::codec::{
    digest_pair, encode_pair_file, parse_pair_layout, sealed_digest, PairDigest, CHECKSUM_LEN,
    HEADER_LEN,
};
use tls_harness::{
    compile, instances, HarnessStore, JobPool, MixWeights, Scale, TraceKey, WorkloadSpec,
};
use tls_minidb::{Tpcc, Transaction};

fn digest(key: &TraceKey, pair: &BenchmarkPrograms) -> [u64; 5] {
    digest_bytes(&encode_pair_file(key.hash(), pair))
}

/// The digest of one snapshot file image, recomputed from its bytes.
fn digest_bytes(bytes: &[u8]) -> [u64; 5] {
    let body = &bytes[..bytes.len() - CHECKSUM_LEN];
    let layout = parse_pair_layout(&body[HEADER_LEN..]).expect("layout");
    columns(digest_pair(body, &layout))
}

/// The digest one snapshot file image carries: its stored seal and the
/// fingerprints of its trailer.
fn sealed_bytes(bytes: &[u8]) -> [u64; 5] {
    let layout = parse_pair_layout(&bytes[HEADER_LEN..bytes.len() - CHECKSUM_LEN]).expect("layout");
    columns(sealed_digest(bytes, &layout))
}

fn columns(d: PairDigest) -> [u64; 5] {
    let PairDigest { checksum, plain, tls, plain_serialized, tls_serialized } = d;
    [checksum, plain, tls, plain_serialized, tls_serialized]
}

/// The seven Figure-5 keys at test scale, then the CI sweep grid's four
/// PAYMENT seeds (one instance each).
fn keys() -> Vec<TraceKey> {
    let mut keys: Vec<TraceKey> = Transaction::ALL
        .iter()
        .map(|&txn| TraceKey { cfg: Scale::Test.tpcc(), txn, count: instances(txn, Scale::Test) })
        .collect();
    for seed in 1..=4 {
        let mut cfg = Scale::Test.tpcc();
        cfg.seed = seed;
        keys.push(TraceKey { cfg, txn: Transaction::Payment, count: 1 });
    }
    keys
}

/// Columns 1–4 (the fingerprints) were generated by the recording path
/// that populated a database per half and have not moved since; column 0
/// (the container seal) by the version-3 encoder. Rows follow [`keys`].
#[rustfmt::skip]
const WANT: [[u64; 5]; 11] = [
    [0x01e10deeceb9902d, 0x0c871f752229acd3, 0xd01a0ade8063a743, 0x0c871f752229acd3, 0x9c1219771771e32b],
    [0xf8f1ac8389257c79, 0xa9e87c760f5e9b4b, 0xc333e499c386ee45, 0xa9e87c760f5e9b4b, 0x8d319db335d1bd59],
    [0x2c530cf53350089f, 0x2bb15b606beb2367, 0xdcef6c23f10005a8, 0x2bb15b606beb2367, 0xbd7e9e84a6f8e3dd],
    [0x70a67c8995ac5e44, 0x47e6b9f9716cce41, 0x63a4ff61dc8ed5f4, 0x47e6b9f9716cce41, 0xf33b379cff0188ce],
    [0xe94c3b1f53c4b678, 0x6f4834856ddba639, 0x38f349ed1b0acd51, 0x6f4834856ddba639, 0x073e46a447f8bce5],
    [0xfb8dcb487ec7273b, 0x17b11d83364a5bbc, 0xf7546bc4b55ec93e, 0x17b11d83364a5bbc, 0xdf4aa47da7749660],
    [0x6f55b7d59d905153, 0x745af7a42d8a8c35, 0x745af7a42d8a8c35, 0x745af7a42d8a8c35, 0x745af7a42d8a8c35],
    [0x49113f48b41e0e0d, 0x5a0bfac1d6f26707, 0xe5d0db2a0480e2ef, 0x5a0bfac1d6f26707, 0xb5f12f1caef0d7c5],
    [0x21d10ace5ca8ff99, 0x178648084cd53fbb, 0x76d3f4bf3a11c01f, 0x178648084cd53fbb, 0x76d3f4bf3a11c01f],
    [0x18d0116c9416a847, 0xc2ff0d4d10a8d61b, 0x3b7040f6f943893d, 0xc2ff0d4d10a8d61b, 0xcbe17ada75444f4f],
    [0x29304633b2f27e11, 0x69375a31e21c1ead, 0xa14f5ab73f495481, 0x69375a31e21c1ead, 0x0907e13ceec878ef],
];

#[test]
fn recorded_pairs_match_their_pinned_digests() {
    let keys = keys();
    let store = HarnessStore::uncached();
    let pool = JobPool::new(2);
    let jobs: Vec<Box<dyn FnOnce() -> [u64; 5] + Send + '_>> = keys
        .iter()
        .map(|key| {
            let store = &store;
            let job: Box<dyn FnOnce() -> [u64; 5] + Send + '_> = Box::new(move || {
                let progs = store.programs(key);
                let pair = BenchmarkPrograms {
                    plain: progs.plain.view().to_program(),
                    tls: progs.tls.view().to_program(),
                };
                digest(key, &pair)
            });
            job
        })
        .collect();
    let via_store = pool.run(jobs);
    for ((key, got), want) in keys.iter().zip(&via_store).zip(&WANT) {
        assert_eq!(got, want, "store digest of {} seed {}", key.txn.trace_name(), key.cfg.seed);
        let (plain, tls) = Tpcc::record_pair(&key.cfg, key.txn, key.count);
        let direct = digest(key, &BenchmarkPrograms { plain, tls });
        assert_eq!(&direct, want, "record_pair digest of {}", key.txn.trace_name());
    }
}

/// The four fingerprints (plain, TLS, serialized plain, serialized TLS)
/// of the pair `store` serves for each key, fetched on a two-worker pool
/// so that misses overlap.
fn served_fingerprints(store: &HarnessStore, keys: &[TraceKey]) -> Vec<[u64; 4]> {
    let pool = JobPool::new(2);
    let jobs: Vec<Box<dyn FnOnce() -> [u64; 4] + Send + '_>> = keys
        .iter()
        .map(|key| {
            let job: Box<dyn FnOnce() -> [u64; 4] + Send + '_> = Box::new(move || {
                let progs = store.programs(key);
                [
                    progs.plain.fingerprint(),
                    progs.tls.fingerprint(),
                    progs.serialized(false).fingerprint(),
                    progs.serialized(true).fingerprint(),
                ]
            });
            job
        })
        .collect();
    pool.run(jobs)
}

/// A disk-backed store streams each pair into its snapshot file: every
/// file it writes carries the pinned digest in its seal and trailer, an
/// independent recompute over its bytes agrees, and the programs it
/// serves carry the pinned fingerprints.
#[test]
fn snapshots_the_store_writes_match_the_pinned_digests() {
    let dir = std::env::temp_dir().join(format!("tls-recording-digests-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let keys = keys();
    let store = HarnessStore::new(Some(dir.clone()), false);
    let served = served_fingerprints(&store, &keys);
    assert_eq!(store.stats.snapshot()[2], keys.len() as u64, "every key recorded");
    for ((key, fingerprints), want) in keys.iter().zip(&served).zip(&WANT) {
        let what = format!("{} seed {}", key.txn.trace_name(), key.cfg.seed);
        let file = std::fs::read(dir.join(key.file_name())).expect("snapshot written");
        assert_eq!(&sealed_bytes(&file), want, "sealed digest of {what}");
        assert_eq!(&digest_bytes(&file), want, "recomputed digest of {what}");
        assert_eq!(fingerprints, &want[1..], "served fingerprints of {what}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fingerprints of the seven Figure-5 pairs at paper scale, in
/// `Transaction::ALL` order: (plain, TLS, serialized plain, serialized
/// TLS), generated by the recording path that copied the whole image
/// per fork. Paper-scale images are ~92 MB, so a fault in how the image is
/// stored that only shows far from address 0 is caught here and not by
/// the test-scale rows.
#[rustfmt::skip]
const PAPER_WANT: [[u64; 4]; 7] = [
    [0x4466a1021a9002a2, 0x81453671eddc8a4a, 0x4466a1021a9002a2, 0x16a969a56d6600ab],
    [0xaf7041974df16f73, 0x40200d9e29435835, 0xaf7041974df16f73, 0x1da92efe2287e589],
    [0xf7e1ab50df20d1e8, 0x01fe09100e020a41, 0xf7e1ab50df20d1e8, 0x2051809c86958116],
    [0xe37659e524e1d57e, 0x95738e5e9ea28c8a, 0xe37659e524e1d57e, 0x8c64610a9343fa2d],
    [0x09377aeafcef9d81, 0xb24ce317e103ff8a, 0x09377aeafcef9d81, 0x21749a5d422f656f],
    [0xfa0205e6ee97da40, 0x2cf338331085dc0e, 0xfa0205e6ee97da40, 0x2c6da7ebf75fe5f2],
    [0xecee4d285d14d33a, 0x98a6738695b21a0d, 0xecee4d285d14d33a, 0x3731e132152f7620],
];

#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale; run with --release")]
fn paper_scale_pairs_match_their_pinned_fingerprints() {
    let keys: Vec<TraceKey> = Transaction::ALL
        .iter()
        .map(|&txn| TraceKey { cfg: Scale::Paper.tpcc(), txn, count: instances(txn, Scale::Paper) })
        .collect();
    let served = served_fingerprints(&HarnessStore::uncached(), &keys);
    for ((key, got), want) in keys.iter().zip(&served).zip(&PAPER_WANT) {
        assert_eq!(got, want, "paper-scale fingerprints of {}", key.txn.trace_name());
    }
}

/// The zipf-0.8 scan-collision spec at paper scale, as the
/// `scan_collision` plan and the benchmark's collider compile it.
fn collider_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::example();
    spec.name = "zipf_080".to_string();
    spec.zipf_theta = 0.8;
    spec.mix = MixWeights { point_read: 1, point_update: 2, range_scan: 5 };
    spec.colliders_per_epoch = 4;
    spec
}

/// Columns 1–4 generated by the compiler that built the workload's
/// database once per half; column 0 (the container seal) by the
/// version-3 encoder.
#[rustfmt::skip]
const COLLIDER_WANT: [u64; 5] =
    [0xe44d4c6dd4e6a066, 0xca3f50301fce526c, 0xb20b1586b88a2f67, 0xca3f50301fce526c, 0x81a59ad5ce654021];

#[test]
fn compiled_collider_matches_its_pinned_digest() {
    let c = compile(&collider_spec());
    let key = 0xC011_1DE5;
    let got =
        digest_bytes(&encode_pair_file(key, &BenchmarkPrograms { plain: c.plain, tls: c.tls }));
    assert_eq!(got, COLLIDER_WANT, "{got:#018x?}");
}
