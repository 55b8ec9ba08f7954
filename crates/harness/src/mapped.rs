//! Zero-copy, memory-mapped trace snapshots.
//!
//! The simulator's warm path used to re-read and re-decode every op of a
//! cached trace pair into owned buffers on each suite invocation — for
//! the full-scale TPC-C traces, hundreds of megabytes of copying before
//! the first simulated cycle. The trace-pair container (see
//! [`crate::codec`]) stores its op records as an aligned little-endian
//! bank whose byte layout *is* `TraceOp`'s in-memory layout, so this
//! module maps the file and serves `&[TraceOp]` straight from the page
//! cache:
//!
//! 1. [`Mapping`] — a read-only `mmap(2)` of the snapshot file (with an
//!    aligned heap fallback for non-unix hosts), `munmap`ed on drop.
//! 2. [`TraceView::open`] — verifies the container framing, seal and
//!    key, and validates every record, **once per map**, in one walk over
//!    the file; then hands out borrowed [`ProgramView`]s for the pair and
//!    for each program's serialized form (the SEQUENTIAL and TLS-SEQ
//!    input); no op bytes are ever copied after open.
//! 3. `TraceView::open_written` — the same view over a file the store
//!    has just streamed: it compares the mapped bytes with what was
//!    written instead of sealing them again or validating their records
//!    (the recorder's ops are valid by construction), and keeps the
//!    digest the write computed.
//!
//! The walk of `open` is memory-speed work: the header is checked first,
//! the structure is parsed from the unverified payload only to find the
//! bank, and then one loop folds each 32-byte block — two records — into
//! the four-lane seal and checks both records against the per-class rule
//! table ([`tls_trace::TraceOp::wire_valid`]) from the same words, with
//! no branch per record. The four content fingerprints (each program and
//! each serialized program) are not recomputed: the writer sealed them in
//! the trailer, and they are served once the seal verifies. Nothing is
//! served until the seal and key have verified, and a bad seal outranks a
//! bad layout, which outranks a bad record (see the [`crate::codec`]
//! module doc for the order). Only when the loop finds a bad record does
//! [`validate_bank`] walk the bank again, to name it. Debug builds
//! recompute the four fingerprints from the served views on every open
//! and assert that they equal the trailer.
//!
//! This is the only reader of trace-pair snapshots. Outcomes a caller
//! must handle (see [`MapOutcome`]): a corrupt file — or one in any
//! format version but the current one — is a typed error for the store's
//! quarantine-and-heal machinery: never a panic, never a misdecode. The
//! records are stored little-endian and served in place, so a big-endian
//! host maps nothing (an [`MapOutcome::Io`] refusal); its store keeps
//! trace pairs in memory only.
//!
//! # Safety
//!
//! This is one of two places in the workspace that contain `unsafe`
//! (the other is the `zerocopy` shim's cast functions). The invariants:
//!
//! * The mapping is `PROT_READ`/`MAP_PRIVATE`: the kernel hands us an
//!   immutable page-aligned view; nothing in this process writes it.
//! * `Mapping` owns the pointer and unmaps in `Drop`; the `&[u8]` it
//!   exposes borrows from `self`, so the borrow checker pins the pages
//!   for as long as any [`TraceView`] (and any [`ProgramView`] borrowed
//!   from it) is alive.
//! * `Send + Sync` are sound because the memory is read-only for the
//!   mapping's whole lifetime.
//!
//! A file mutated *externally* mid-run could in principle change under a
//! shared map; `MAP_PRIVATE` gives copy-on-write isolation from later
//! writes on Linux, and the store's atomic rename-into-place discipline
//! means snapshot files are never modified in place anyway.

use crate::codec::{
    self, cast_bank, check_header, fingerprint_view, parse_pair_layout, sealed_digest,
    validate_bank, verify_seal, PairDigest, PairEncoder, PairLayout, Seal, SnapshotError,
    CHECKSUM_LEN, HEADER_LEN, KIND_TRACE_PAIR, SEAL_BLOCK,
};
use std::path::Path;
use tls_trace::{ProgramView, TraceOp};

// ---------------------------------------------------------------------------
// Mapping: read-only bytes, page-aligned, unmapped on drop.
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    /// A read-only private memory map of one whole file.
    #[derive(Debug)]
    pub struct RawMap {
        ptr: *mut u8,
        len: usize,
    }

    impl RawMap {
        pub fn of(file: &File, len: usize) -> io::Result<Self> {
            debug_assert!(len > 0, "mmap of an empty file is EINVAL");
            // SAFETY: requesting a fresh PROT_READ | MAP_PRIVATE mapping
            // of `len` bytes at offset 0 of an open fd; the kernel picks
            // the address. MAP_FAILED is (size_t)-1.
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
            };
            if ptr as usize == usize::MAX {
                return Err(io::Error::last_os_error());
            }
            Ok(RawMap { ptr, len })
        }

        pub fn bytes(&self) -> &[u8] {
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by
            // self; the returned slice borrows self, so Drop cannot run
            // while it is in use.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for RawMap {
        fn drop(&mut self) {
            // SAFETY: exactly the pointer and length mmap returned.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }

    // SAFETY: the mapping is read-only for its whole lifetime; shared
    // references to immutable memory are safe to send and share.
    unsafe impl Send for RawMap {}
    unsafe impl Sync for RawMap {}
}

/// The backing storage of a mapped snapshot: a real memory map on unix,
/// an aligned heap buffer elsewhere (or for empty files, which `mmap`
/// rejects).
#[derive(Debug)]
enum Backing {
    #[cfg(unix)]
    Mapped(sys::RawMap),
    /// `Vec<u128>` guarantees 16-byte alignment, matching the container's
    /// bank-alignment invariant so the zerocopy cast still succeeds.
    Heap { buf: Vec<u128>, len: usize },
}

/// Read-only bytes of one snapshot file, served without copying where
/// the platform allows.
#[derive(Debug)]
pub struct Mapping {
    backing: Backing,
}

impl Mapping {
    /// Maps (or, off unix, reads into an aligned buffer) the whole file.
    pub fn open(path: &Path) -> std::io::Result<Mapping> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len() as usize;
        #[cfg(unix)]
        {
            if len > 0 {
                return Ok(Mapping { backing: Backing::Mapped(sys::RawMap::of(&file, len)?) });
            }
        }
        Self::read_aligned(path, len)
    }

    fn read_aligned(path: &Path, cap: usize) -> std::io::Result<Mapping> {
        let bytes = std::fs::read(path)?;
        let len = cap.min(bytes.len());
        let mut buf = vec![0u128; bytes.len().div_ceil(16)];
        for (i, chunk) in bytes.chunks(16).enumerate() {
            let mut word = [0u8; 16];
            word[..chunk.len()].copy_from_slice(chunk);
            // Native-endian words: the raw reinterpretation below gives
            // back exactly the file's bytes on every host.
            buf[i] = u128::from_ne_bytes(word);
        }
        Ok(Mapping { backing: Backing::Heap { buf, len } })
    }

    /// The file's bytes. 16-byte aligned at offset 0 in every backing.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped(m) => m.bytes(),
            Backing::Heap { buf, len } => {
                // SAFETY: u128 has no padding or invalid bit patterns;
                // viewing its storage as bytes is always defined, and
                // the slice borrows self (keeping the buffer alive).
                unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), *len) }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// TraceView: a validated, borrowable pair of programs over a Mapping.
// ---------------------------------------------------------------------------

/// A trace pair served in place from a mapped trace-pair snapshot.
///
/// Construction performs the *single* integrity pass — container
/// framing, seal, key, layout validation and per-record validation — so
/// the view accessors afterwards are pure pointer arithmetic. The content
/// fingerprints of both programs and of both serialized forms, which
/// every consumer of a program needs for report-cache keys, come from the
/// sealed trailer ([`PairDigest`]).
#[derive(Debug)]
pub struct TraceView {
    map: Mapping,
    layout: PairLayout,
    /// The container seal and the four content fingerprints.
    pub digest: PairDigest,
}

impl TraceView {
    /// The mapped op bank: every record of both programs, in place.
    /// Infallible after construction's validation pass (alignment and
    /// record validity already checked).
    pub fn bank(&self) -> &[TraceOp] {
        cast_bank(self.layout.bank(&self.map.bytes()[HEADER_LEN..]))
            .expect("bank alignment and size verified at open")
    }

    /// Borrowed view of the unmodified execution's program.
    pub fn plain(&self) -> ProgramView<'_> {
        self.layout.plain.view(self.bank())
    }

    /// Borrowed view of the TLS-transformed execution's program.
    pub fn tls(&self) -> ProgramView<'_> {
        self.layout.tls.view(self.bank())
    }

    /// Borrowed view of the serialized form of the TLS (`tls`) or plain
    /// program — region for region what `serialize_view` builds, with
    /// every op still served from the mapping.
    pub fn serialized(&self, tls: bool) -> ProgramView<'_> {
        let program = if tls { &self.layout.tls } else { &self.layout.plain };
        program.serialized_view(self.bank())
    }

    /// Total records in the shared bank (both programs).
    pub fn total_ops(&self) -> usize {
        self.layout.total_ops
    }

    /// The unmodified execution's benchmark name.
    pub fn plain_name(&self) -> &str {
        &self.layout.plain.name
    }

    /// The TLS-transformed execution's benchmark name.
    pub fn tls_name(&self) -> &str {
        &self.layout.tls.name
    }

    /// The mapped file size in bytes.
    pub fn file_len(&self) -> usize {
        self.map.bytes().len()
    }

    /// Opens, verifies and maps the snapshot at `path` for `key_hash`.
    ///
    /// Returns the same [`SnapshotError`] for a corrupt file as
    /// [`codec::decode_container`], then [`parse_pair_layout`], then
    /// [`validate_bank`] would, in that order — while reading each byte
    /// once, for the seal and the record check together.
    pub fn open(path: &Path, key_hash: u64) -> MapOutcome {
        if cfg!(not(target_endian = "little")) {
            return MapOutcome::Io("a big-endian host cannot map little-endian records".into());
        }
        let map = match Mapping::open(path) {
            Ok(m) => m,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return MapOutcome::Missing,
            Err(e) => return MapOutcome::Io(e.to_string()),
        };
        let bytes = map.bytes();
        let payload = match check_header(bytes, KIND_TRACE_PAIR) {
            Ok(p) => p,
            Err(e) => return MapOutcome::Bad(e),
        };
        let body = &bytes[..bytes.len() - CHECKSUM_LEN];
        // The layout comes from the unverified payload and only places
        // the bank for the walk. A payload it cannot parse is judged on
        // its seal alone: a bad seal outranks the layout error, as in
        // the verify-first order.
        let layout = match parse_pair_layout(payload) {
            Ok(l) => l,
            Err(e) => {
                let seal = verify_seal(bytes, codec::seal(body), key_hash);
                return MapOutcome::Bad(seal.err().unwrap_or(e));
            }
        };
        // The bank starts on a seal block (the layout checked its
        // alignment), so its record pairs are whole blocks; an odd last
        // record is sealed with the trailer and checked on its own.
        let bank_at = HEADER_LEN + layout.bank_offset;
        let bank = layout.bank(payload);
        let paired = bank.len() - bank.len() % SEAL_BLOCK;
        let mut seal = Seal::new();
        seal.update(&body[..bank_at]);
        let valid = seal.update_records(&bank[..paired]) & validate_bank(&bank[paired..]).is_ok();
        seal.update(&body[bank_at + paired..]);
        if let Err(e) = verify_seal(bytes, seal.finish(), key_hash) {
            return MapOutcome::Bad(e);
        }
        if !valid {
            if let Err(e) = validate_bank(bank) {
                return MapOutcome::Bad(e);
            }
        }
        if let Err(e) = cast_bank(bank) {
            // Unreachable for a real mmap (page-aligned) or the aligned
            // heap fallback; kept as a typed rejection, not an assert.
            return MapOutcome::Bad(e);
        }
        let digest = sealed_digest(bytes, &layout);
        MapOutcome::Mapped(Box::new(TraceView::served(map, layout, digest)))
    }

    /// Maps the snapshot that `encoder` has just written at `path`, whose
    /// write returned `digest`, without sealing it again: the map is
    /// served only if its bytes are exactly what was streamed
    /// ([`PairEncoder::wrote`]). `None` on any difference (a file
    /// replaced after the write, say), and always on a big-endian host,
    /// which cannot serve records in place.
    ///
    /// The records are not validated again: they equal the recorder's
    /// ops, which are valid by construction. Debug builds check them
    /// anyway.
    pub(crate) fn open_written(
        path: &Path,
        encoder: &PairEncoder<'_>,
        digest: PairDigest,
    ) -> Option<TraceView> {
        if cfg!(not(target_endian = "little")) {
            return None;
        }
        let map = Mapping::open(path).ok()?;
        let bytes = map.bytes();
        if !encoder.wrote(bytes, &digest) {
            return None;
        }
        let layout = parse_pair_layout(&bytes[HEADER_LEN..bytes.len() - CHECKSUM_LEN]).ok()?;
        let bank = layout.bank(&bytes[HEADER_LEN..]);
        debug_assert_eq!(validate_bank(bank), Ok(()), "the recorder wrote an invalid record");
        cast_bank(bank).ok()?;
        Some(TraceView::served(map, layout, digest))
    }

    /// The view of a verified map. Debug builds recompute the four
    /// fingerprints from the views it serves and assert that they equal
    /// the sealed ones: a writer whose trailer drifted from
    /// [`fingerprint_view`] fails every test that opens a snapshot.
    fn served(map: Mapping, layout: PairLayout, digest: PairDigest) -> TraceView {
        let view = TraceView { map, layout, digest };
        if cfg!(debug_assertions) {
            let recomputed = PairDigest {
                checksum: digest.checksum,
                plain: fingerprint_view(&view.plain()),
                tls: fingerprint_view(&view.tls()),
                plain_serialized: fingerprint_view(&view.serialized(false)),
                tls_serialized: fingerprint_view(&view.serialized(true)),
            };
            assert_eq!(recomputed, digest, "sealed fingerprints drifted from the served programs");
        }
        view
    }
}

/// What opening a snapshot for mapping produced.
#[derive(Debug)]
pub enum MapOutcome {
    /// A verified trace-pair snapshot, served in place.
    Mapped(Box<TraceView>),
    /// No snapshot on disk (a cold cache, not an error).
    Missing,
    /// A corrupt or mismatched snapshot: quarantine and re-record.
    Bad(SnapshotError),
    /// The file could not be read or mapped (or this host is big-endian):
    /// not evidence against the bytes, so not quarantined.
    Io(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_pair_file;
    use tls_core::experiment::BenchmarkPrograms;
    use tls_trace::{Addr, OpSink, Pc, ProgramBuilder};

    fn sample_pair() -> BenchmarkPrograms {
        let mut plain = ProgramBuilder::new("plain");
        plain.int_ops(Pc::new(0, 0), 64);
        let plain = plain.finish();
        let mut tls = ProgramBuilder::new("tls");
        tls.begin_parallel();
        for i in 0..4u64 {
            tls.begin_epoch();
            tls.load(Pc::new(1, 0), Addr(0x100 + 8 * i), 8);
            tls.int_ops(Pc::new(1, 1), 30);
            tls.store(Pc::new(1, 2), Addr(0x200 + 8 * i), 8);
            tls.end_epoch();
        }
        tls.end_parallel();
        let tls = tls.finish();
        BenchmarkPrograms { plain, tls }
    }

    fn write_pair(dir: &Path, pair: &BenchmarkPrograms, key: u64) -> std::path::PathBuf {
        let path = dir.join("pair.tlsnap");
        std::fs::write(&path, encode_pair_file(key, pair)).unwrap();
        path
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tls-mapped-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn mapped_view_equals_the_source_pair() {
        let dir = tmpdir("eq");
        let pair = sample_pair();
        let path = write_pair(&dir, &pair, 42);
        let view = match TraceView::open(&path, 42) {
            MapOutcome::Mapped(v) => v,
            other => panic!("expected Mapped, got {other:?}"),
        };
        assert_eq!(view.total_ops(), pair.plain.total_ops() + pair.tls.total_ops());
        let owned_plain = view.plain().to_program();
        let owned_tls = view.tls().to_program();
        assert_eq!((view.plain_name(), view.tls_name()), ("plain", "tls"));
        assert!(owned_plain == pair.plain && owned_tls == pair.tls, "the mapped pair");
        assert_eq!(view.digest.plain, fingerprint_view(&pair.plain.view()));
        assert_eq!(view.digest.tls, fingerprint_view(&pair.tls.view()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_corrupt_files_are_distinct_outcomes() {
        let dir = tmpdir("bad");
        assert!(matches!(TraceView::open(&dir.join("absent"), 1), MapOutcome::Missing));
        let pair = sample_pair();
        let path = write_pair(&dir, &pair, 7);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(TraceView::open(&path, 7), MapOutcome::Bad(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_key_is_bad() {
        let dir = tmpdir("key");
        let path = write_pair(&dir, &sample_pair(), 7);
        assert!(matches!(
            TraceView::open(&path, 8),
            MapOutcome::Bad(SnapshotError::KeyMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heap_fallback_is_aligned_and_identical() {
        let dir = tmpdir("heap");
        let pair = sample_pair();
        let path = write_pair(&dir, &pair, 3);
        let map = Mapping::read_aligned(&path, usize::MAX).unwrap();
        let direct = std::fs::read(&path).unwrap();
        assert_eq!(map.bytes(), &direct[..]);
        assert_eq!(map.bytes().as_ptr() as usize % 16, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
