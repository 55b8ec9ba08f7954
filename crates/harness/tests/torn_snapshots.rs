//! Torn-write robustness for the snapshot store.
//!
//! A `kill -9` (or a full disk) can leave a TLSNAP prefix behind. Two
//! properties must hold for the store to be crash-safe:
//!
//! 1. **Every** byte-boundary truncation of a snapshot is rejected with a
//!    structured error — never a panic, never an `Ok` carrying partial
//!    (stale) data. Checked exhaustively at the codec layer.
//! 2. A store that finds such a file quarantines it (with a reason
//!    file) and regenerates a bit-identical snapshot transparently.
//!    Checked through the full `HarnessStore` path on proptest-chosen
//!    boundaries, which shrink to a minimal failing length.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use tls_harness::codec;
use tls_harness::store::{HarnessStore, TraceKey};
use tls_harness::Scale;
use tls_minidb::Transaction;

fn key() -> TraceKey {
    TraceKey { cfg: Scale::Test.tpcc(), txn: Transaction::Payment, count: 1 }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tls-torn-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Records the snapshot once and returns its on-disk bytes and path.
fn recorded_snapshot(dir: &Path) -> (Vec<u8>, PathBuf) {
    let store = HarnessStore::new(Some(dir.to_path_buf()), true);
    store.programs(&key());
    let path = dir.join(key().file_name());
    let bytes = std::fs::read(&path).expect("snapshot written");
    (bytes, path)
}

#[test]
fn every_byte_boundary_truncation_decodes_to_an_error() {
    let dir = fresh_dir("codec");
    let (bytes, _) = recorded_snapshot(&dir);
    let hash = key().hash();
    // The verify-first reference chain, in memory: writing every prefix
    // to a file for `TraceView::open` would make the loop quadratic.
    let open = |file: &[u8]| -> Result<(), codec::SnapshotError> {
        let payload = codec::decode_container(file, codec::KIND_TRACE_PAIR, hash)?;
        let layout = codec::parse_pair_layout(payload)?;
        codec::validate_bank(layout.bank(payload))
    };
    for len in 0..bytes.len() {
        if open(&bytes[..len]).is_ok() {
            panic!("a {len}-byte prefix of a {}-byte snapshot opened", bytes.len());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn truncated_snapshot_is_quarantined_and_regenerated(frac in 0.0f64..1.0) {
        let dir = fresh_dir("store");
        let (full, path) = recorded_snapshot(&dir);
        let cut = ((full.len() as f64 * frac) as usize).min(full.len() - 1);
        std::fs::write(&path, &full[..cut]).expect("truncate snapshot");

        // A fresh store (cold memory cache) must heal, not crash.
        let healing = HarnessStore::new(Some(dir.clone()), true);
        let programs = healing.programs(&key());
        prop_assert!(programs.tls.total_ops() > 0, "regenerated program is real");
        let stats = healing.stats.snapshot();
        prop_assert_eq!(stats[6], 1, "exactly one snapshot quarantined");
        prop_assert_eq!(stats[2], 1, "regenerated by re-recording");

        // The torn prefix moved into quarantine with its reason file.
        let qdir = healing.quarantine_dir().expect("cached store has a quarantine dir");
        let name = key().file_name();
        let moved = std::fs::read(qdir.join(&name)).expect("torn file preserved");
        prop_assert_eq!(&moved[..], &full[..cut], "quarantine keeps the evidence");
        let reason =
            std::fs::read_to_string(qdir.join(format!("{name}.reason.txt"))).expect("reason file");
        prop_assert!(reason.contains("code:"), "reason file names the decode error: {}", reason);

        // The healed snapshot is bit-identical to the original — no
        // stale read anywhere in the path.
        let healed = std::fs::read(&path).expect("snapshot regenerated");
        prop_assert_eq!(&healed[..], &full[..], "healed snapshot matches the original bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
