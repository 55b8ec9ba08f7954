//! Pins what recording produces. The snapshot digest (`codec::digest_pair`:
//! container seal plus the four program fingerprints) of every
//! test-scale Figure-5 pair and of each CI sweep-grid PAYMENT seed is
//! compared with constants, through both recording entry points: the
//! store (on a two-worker pool, so misses overlap) and
//! `Tpcc::record_pair`. The four fingerprints are what report keys and
//! the sweep rows' `fingerprint` field are built from. In release builds
//! the fingerprints of the seven paper-scale Figure-5 pairs are pinned
//! too, recorded through the store.
//!
//! Every pin also holds the [`seal`] of the pair's op bank: every record
//! of the plain program, then of the TLS program, as a snapshot's bank
//! stores them. That column depends on the recorded ops alone, not on how
//! fingerprints or containers are defined, so it proves a recording
//! unchanged across a change of either.

use tls_core::experiment::BenchmarkPrograms;
use tls_harness::codec::{
    digest_pair, encode_pair_file, parse_pair_layout, seal, sealed_digest, PairDigest, Seal,
    CHECKSUM_LEN, HEADER_LEN,
};
use tls_harness::{
    compile, instances, HarnessStore, JobPool, MixWeights, Scale, TraceKey, WorkloadSpec,
};
use tls_minidb::{Tpcc, Transaction};
use tls_trace::ProgramView;

fn digest(key: &TraceKey, pair: &BenchmarkPrograms) -> [u64; 6] {
    let got = digest_bytes(&encode_pair_file(key.hash(), pair));
    assert_eq!(got[5], bank_seal(&pair.plain.view(), &pair.tls.view()), "the file's bank");
    got
}

/// The seal of the op bank of the pair `(plain, tls)`, from the programs:
/// each record's wire bytes, plain's first, in program order.
fn bank_seal(plain: &ProgramView<'_>, tls: &ProgramView<'_>) -> u64 {
    let mut bank = Seal::new();
    for op in plain.iter_ops().chain(tls.iter_ops()) {
        bank.update(&op.to_raw());
    }
    bank.finish()
}

/// The digest of one snapshot file image, recomputed from its bytes.
fn digest_bytes(bytes: &[u8]) -> [u64; 6] {
    let body = &bytes[..bytes.len() - CHECKSUM_LEN];
    let layout = parse_pair_layout(&body[HEADER_LEN..]).expect("layout");
    columns(digest_pair(body, &layout), layout.bank(&body[HEADER_LEN..]))
}

/// The digest one snapshot file image carries: its stored seal and the
/// fingerprints of its trailer.
fn sealed_bytes(bytes: &[u8]) -> [u64; 6] {
    let payload = &bytes[HEADER_LEN..bytes.len() - CHECKSUM_LEN];
    let layout = parse_pair_layout(payload).expect("layout");
    columns(sealed_digest(bytes, &layout), layout.bank(payload))
}

fn columns(d: PairDigest, bank: &[u8]) -> [u64; 6] {
    let PairDigest { checksum, plain, tls, plain_serialized, tls_serialized } = d;
    [checksum, plain, tls, plain_serialized, tls_serialized, seal(bank)]
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

/// Column 5 (the op-bank seal) was generated by the copy-on-write
/// recording path before fingerprints moved onto the seal; columns 0–4
/// (the container seal and the four fingerprints) by the version-4
/// encoder, once column 5 passed unchanged under it. Rows follow
/// [`keys`].
#[rustfmt::skip]
const WANT: [[u64; 6]; 11] = [
    [0xc4da36973f10392b, 0xe5cce3bee44b7592, 0x035d655635178c4f, 0xe5cce3bee44b7592, 0x838ecc325ae4dfdb, 0xaf5115e78b56778c],
    [0xfb1e53a08a0fc716, 0xc9c83fa417bdadce, 0xa06217fb89792dcc, 0xc9c83fa417bdadce, 0xdbe52ed790603328, 0x49f15865a0add176],
    [0x30b4f336202db5d4, 0x85f15909f91cb0f5, 0x47381efe6b6f9ca1, 0x85f15909f91cb0f5, 0xc69961996e2a4053, 0x9469d1c04ace025b],
    [0x849fe614a3113664, 0x7d3673f4cb3f4259, 0x5f87f65e833944c1, 0x7d3673f4cb3f4259, 0x35f6cac6095b4439, 0x1e1cd7592cf0222c],
    [0xcf137f87c53a4e1e, 0xe1e57230df0b0e3d, 0xbd059b4361b620ea, 0xe1e57230df0b0e3d, 0x8670d0cbd2bd1346, 0x9465b3d64e701dd5],
    [0xdc556d45c3874527, 0xbd7bb62b56e4594f, 0x98d802e2f53eef78, 0xbd7bb62b56e4594f, 0x17895ae3ea501eeb, 0x5bed5b09e21573cd],
    [0x83e8429a003a744c, 0xe4383bd681223014, 0xe4383bd681223014, 0xe4383bd681223014, 0xe4383bd681223014, 0x5f123b9ac85a9027],
    [0x27f91913aec33263, 0x765a87e58965897b, 0x07c9ac64206567da, 0x765a87e58965897b, 0x6e85e55c5274103b, 0x92397c82b088c77d],
    [0x50f5019070003701, 0xa8e5373ee631e93d, 0x2ffb3ea96261628c, 0xa8e5373ee631e93d, 0x2ffb3ea96261628c, 0xe22e8556c7098307],
    [0xbc39970b65a49697, 0x2706805bf0b6c07c, 0x9696aa94de96dc6b, 0x2706805bf0b6c07c, 0x74b680ebadd22c81, 0x99bdd8600606ce12],
    [0xa7d871e30529b06d, 0x0261c00d292e8051, 0x67301cf5a51e89c9, 0x0261c00d292e8051, 0x6270f82a1cafabc8, 0x2f9e02696939854f],
];

#[test]
fn recorded_pairs_match_their_pinned_digests() {
    let keys = keys();
    let store = HarnessStore::uncached();
    let pool = JobPool::new(2);
    let jobs: Vec<Box<dyn FnOnce() -> [u64; 6] + Send + '_>> = keys
        .iter()
        .map(|key| {
            let store = &store;
            let job: Box<dyn FnOnce() -> [u64; 6] + Send + '_> = Box::new(move || {
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
/// and the op-bank seal of the pair `store` serves for each key, fetched
/// on a two-worker pool so that misses overlap.
fn served_fingerprints(store: &HarnessStore, keys: &[TraceKey]) -> Vec<[u64; 5]> {
    let pool = JobPool::new(2);
    let jobs: Vec<Box<dyn FnOnce() -> [u64; 5] + Send + '_>> = keys
        .iter()
        .map(|key| {
            let job: Box<dyn FnOnce() -> [u64; 5] + Send + '_> = Box::new(move || {
                let progs = store.programs(key);
                [
                    progs.plain.fingerprint(),
                    progs.tls.fingerprint(),
                    progs.serialized(false).fingerprint(),
                    progs.serialized(true).fingerprint(),
                    bank_seal(&progs.plain.view(), &progs.tls.view()),
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
/// TLS), then the op-bank seal. The op-bank seals were generated by the
/// copy-on-write recording path before fingerprints moved onto the
/// seal, the fingerprints by the version-4 encoder. Paper-scale images are ~92 MB, so a fault in how the image is
/// stored that only shows far from address 0 is caught here and not by
/// the test-scale rows.
#[rustfmt::skip]
const PAPER_WANT: [[u64; 5]; 7] = [
    [0x5f8182075de3481d, 0x20d734b8b37b3321, 0x5f8182075de3481d, 0xa12a3f71e03b9e46, 0x140f8999e0a8c1fe],
    [0xbfce1482f9a5cf6c, 0x724d6d97cc3c658c, 0xbfce1482f9a5cf6c, 0x0a14f90b6f01b504, 0x2e5accd301e1ed73],
    [0x280a3a404a2b6875, 0x99aedd9a7b4de904, 0x280a3a404a2b6875, 0xe8bf55fe79683ccf, 0xe0d9b6a0072d094e],
    [0xc779e737c40b6bf5, 0x3f61dbde3a125c83, 0xc779e737c40b6bf5, 0x2147c9c489122785, 0xb46865ed78b7af66],
    [0x1f6b894edb740058, 0x3401ec5de7993e97, 0x1f6b894edb740058, 0xb9ab6d98ab02340d, 0x7f09090b970d0495],
    [0x850852ad42bcc89f, 0xdc1841ccd1562043, 0x850852ad42bcc89f, 0x3d9c14ce533e6619, 0xd8bcf62ab1ee1557],
    [0x301e33f00c0fdffe, 0xe9d5339156fca233, 0x301e33f00c0fdffe, 0x4a31194e598448f0, 0xec7ee90b09dc5387],
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

/// Column 5 (the op-bank seal) generated by the copy-on-write compiler
/// before fingerprints moved onto the seal; columns 0–4 by the version-4
/// encoder.
#[rustfmt::skip]
const COLLIDER_WANT: [u64; 6] = [
    0xd4704b1ef8bf292f, 0xdf4315fed812ffb0, 0x0c73fbd6e863d1b2, 0xdf4315fed812ffb0,
    0xb36538d0ac28d771, 0x79efc124bb3f6c6a,
];

#[test]
fn compiled_collider_matches_its_pinned_digest() {
    let c = compile(&collider_spec());
    let key = 0xC011_1DE5;
    let got =
        digest_bytes(&encode_pair_file(key, &BenchmarkPrograms { plain: c.plain, tls: c.tls }));
    assert_eq!(got, COLLIDER_WANT, "{got:#018x?}");
}
