//! Zero-copy, memory-mapped trace snapshots.
//!
//! The simulator's warm path used to re-read and re-decode every op of a
//! cached trace pair into owned buffers on each suite invocation — for
//! the full-scale TPC-C traces, hundreds of megabytes of copying before
//! the first simulated cycle. The version-2 container (see
//! [`crate::codec`]) stores its op records as an aligned little-endian
//! bank whose byte layout *is* `TraceOp`'s in-memory layout, so this
//! module maps the file and serves `&[TraceOp]` straight from the page
//! cache:
//!
//! 1. [`Mapping`] — a read-only `mmap(2)` of the snapshot file (with an
//!    aligned heap fallback for non-unix hosts), `munmap`ed on drop.
//! 2. [`TraceView::open`] — verifies the container framing + checksum
//!    and validates every record **once per map**, then hands out
//!    borrowed [`ProgramView`]s for the pair; no op bytes are ever
//!    copied after that single integrity pass.
//!
//! Outcomes a caller must handle (see [`MapOutcome`]): a big-endian host
//! falls back to the owned decoder (records are stored little-endian),
//! and a corrupt file — or one in any format version but the current
//! one — is a typed error for the store's quarantine-and-heal machinery:
//! never a panic, never a misdecode.
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
    self, cast_bank, fingerprint_view, parse_pair_layout, validate_bank, PairLayout, SnapshotError,
    KIND_TRACE_PAIR,
};
use std::path::Path;
use tls_core::experiment::BenchmarkPrograms;
use tls_trace::{ProgramView, TraceOp};

const HEADER_LEN: usize = 24;
const CHECKSUM_LEN: usize = 8;

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

/// A trace pair served in place from a mapped version-2 snapshot.
///
/// Construction performs the *single* integrity pass — container
/// framing, checksum, layout validation, and per-record validation — so
/// the `view()` accessors afterwards are pure pointer arithmetic. Both
/// content fingerprints are computed here too (streamed over the mapped
/// bank, no allocation), because every consumer of a program needs its
/// fingerprint for report-cache keys.
#[derive(Debug)]
pub struct TraceView {
    map: Mapping,
    layout: PairLayout,
    /// Byte offset of the (validated) bank within the whole file.
    bank_at: usize,
    /// Content fingerprint of the plain program (canonical v1 stream).
    pub plain_fingerprint: u64,
    /// Content fingerprint of the TLS program.
    pub tls_fingerprint: u64,
}

impl TraceView {
    /// The mapped op bank as records. Infallible after construction's
    /// validation pass (alignment and record validity already checked).
    fn bank(&self) -> &[TraceOp] {
        cast_bank(self.bank_bytes()).expect("bank alignment and size verified at open")
    }

    /// The bank's bytes: after the container header + layout prefix,
    /// before the trailing checksum.
    fn bank_bytes(&self) -> &[u8] {
        let bytes = self.map.bytes();
        &bytes[self.bank_at..bytes.len() - CHECKSUM_LEN]
    }

    /// Borrowed view of the unmodified execution's program.
    pub fn plain(&self) -> ProgramView<'_> {
        self.layout.plain.view(self.bank())
    }

    /// Borrowed view of the TLS-transformed execution's program.
    pub fn tls(&self) -> ProgramView<'_> {
        self.layout.tls.view(self.bank())
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

    /// Materializes an owned pair (the healing / re-encode path).
    pub fn to_pair(&self) -> BenchmarkPrograms {
        BenchmarkPrograms { plain: self.plain().to_program(), tls: self.tls().to_program() }
    }

    /// Opens, verifies and maps the snapshot at `path` for `key_hash`.
    pub fn open(path: &Path, key_hash: u64) -> MapOutcome {
        let map = match Mapping::open(path) {
            Ok(m) => m,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return MapOutcome::Missing,
            Err(e) => return MapOutcome::Io(e.to_string()),
        };
        let bytes = map.bytes();
        let payload = match codec::decode_container(bytes, KIND_TRACE_PAIR, key_hash) {
            Ok(p) => p,
            Err(e) => return MapOutcome::Bad(e),
        };
        let layout = match parse_pair_layout(payload) {
            Ok(l) => l,
            Err(e) => return MapOutcome::Bad(e),
        };
        if cfg!(not(target_endian = "little")) {
            // Records are stored little-endian; this host cannot serve
            // them in place. Decode owned (endian-correct) instead.
            return match codec::decode_pair(payload) {
                Ok(pair) => MapOutcome::Unsupported(Box::new(pair)),
                Err(e) => MapOutcome::Bad(e),
            };
        }
        let bank_at = HEADER_LEN + layout.bank_offset;
        let bank_bytes = &bytes[bank_at..bytes.len() - CHECKSUM_LEN];
        if let Err(e) = validate_bank(bank_bytes) {
            return MapOutcome::Bad(e);
        }
        if let Err(e) = cast_bank(bank_bytes) {
            // Unreachable for a real mmap (page-aligned) or the aligned
            // heap fallback; kept as a typed rejection, not an assert.
            return MapOutcome::Bad(e);
        }
        // cast_bank above checked the slice ending before the checksum;
        // rebuild the view's notion of the bank to exclude it.
        let view = TraceView { map, layout, bank_at, plain_fingerprint: 0, tls_fingerprint: 0 };
        let plain_fp = fingerprint_view(&view.plain());
        let tls_fp = fingerprint_view(&view.tls());
        MapOutcome::Mapped(Box::new(TraceView {
            plain_fingerprint: plain_fp,
            tls_fingerprint: tls_fp,
            ..view
        }))
    }
}

/// What opening a snapshot for mapping produced.
#[derive(Debug)]
pub enum MapOutcome {
    /// A verified version-2 snapshot, served in place.
    Mapped(Box<TraceView>),
    /// No snapshot on disk (a cold cache, not an error).
    Missing,
    /// A verified snapshot this host cannot serve in place (big-endian),
    /// decoded owned. Do **not** rewrite — the bytes are fine.
    Unsupported(Box<BenchmarkPrograms>),
    /// A corrupt or mismatched snapshot: quarantine and re-record.
    Bad(SnapshotError),
    /// The file exists but could not be read or mapped.
    Io(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_pair_file, fnv1a, program_bytes};
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

    fn write_v2(dir: &Path, pair: &BenchmarkPrograms, key: u64) -> std::path::PathBuf {
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
    fn mapped_view_equals_owned_decode() {
        let dir = tmpdir("eq");
        let pair = sample_pair();
        let path = write_v2(&dir, &pair, 42);
        let view = match TraceView::open(&path, 42) {
            MapOutcome::Mapped(v) => v,
            other => panic!("expected Mapped, got {other:?}"),
        };
        assert_eq!(view.total_ops(), pair.plain.total_ops() + pair.tls.total_ops());
        let owned_plain = view.plain().to_program();
        let owned_tls = view.tls().to_program();
        assert_eq!(owned_plain.name, pair.plain.name);
        assert!(pair.plain.iter_ops().eq(owned_plain.iter_ops()));
        assert!(pair.tls.iter_ops().eq(owned_tls.iter_ops()));
        assert_eq!(view.plain_fingerprint, fnv1a(&program_bytes(&pair.plain)));
        assert_eq!(view.tls_fingerprint, fnv1a(&program_bytes(&pair.tls)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_corrupt_files_are_distinct_outcomes() {
        let dir = tmpdir("bad");
        assert!(matches!(TraceView::open(&dir.join("absent"), 1), MapOutcome::Missing));
        let pair = sample_pair();
        let path = write_v2(&dir, &pair, 7);
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
        let path = write_v2(&dir, &sample_pair(), 7);
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
        let path = write_v2(&dir, &pair, 3);
        let map = Mapping::read_aligned(&path, usize::MAX).unwrap();
        let direct = std::fs::read(&path).unwrap();
        assert_eq!(map.bytes(), &direct[..]);
        assert_eq!(map.bytes().as_ptr() as usize % 16, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
