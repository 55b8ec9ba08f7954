//! The versioned, checksummed snapshot container and the binary trace
//! codec.
//!
//! Every file the harness writes under `traces/` is one *container*:
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0  | 6 | magic `TLSNAP` |
//! | 6  | 1 | payload kind (1 = trace pair, 2 = sim report) |
//! | 7  | 1 | format version (currently 2) |
//! | 8  | 8 | cache-key hash, little-endian (see [`crate::store`]) |
//! | 16 | 8 | payload length in bytes, little-endian |
//! | 24 | n | payload |
//! | 24 + n | 8 | FNV-1a-64 checksum of bytes `0 .. 24 + n` |
//!
//! The decoder verifies magic, kind, version, key hash, length and
//! checksum *before* interpreting a single payload byte, so a corrupt or
//! truncated snapshot is rejected — never misdecoded.
//!
//! # Version-2 trace-pair payload: the zero-copy record bank
//!
//! Version 2 splits the `(plain, tls)` trace pair into a compact
//! *structure section* and an aligned *op bank*, so the 16-byte
//! [`TraceOp`] records can be served in place from a memory map (the
//! `zerocopy` `FromBytes` idiom) instead of decoded into owned buffers:
//!
//! | payload offset | size | field |
//! |---|---|---|
//! | 0 | 2 | endianness stamp [`ENDIAN_STAMP`], little-endian |
//! | 2 | 2 | record size in bytes (16), little-endian |
//! | 4 | 4 | op-bank offset within the payload, little-endian |
//! | 8 | 8 | total op records in the bank, little-endian |
//! | 16 | — | structure section (see below) |
//! | … | — | zero padding to the bank offset |
//! | bank offset | 16 × total | op records, [`TraceOp::to_raw`] layout |
//!
//! The structure section describes both programs (plain first, then TLS)
//! without inline ops — each epoch is just a record count, and records
//! are assigned to epochs left to right:
//!
//! | field | encoding |
//! |---|---|
//! | name | u32 length + UTF-8 bytes |
//! | region count | u32 |
//! | region | tag u8 (0 sequential, 1 parallel) |
//! | &nbsp;&nbsp; sequential | u32 op count |
//! | &nbsp;&nbsp; parallel | u32 epoch count, then u32 op count per epoch |
//!
//! Two invariants make the in-place read sound:
//!
//! * **Alignment** — the encoder chooses the bank offset so the bank
//!   begins at a *file* offset that is a multiple of 16; any page- (mmap)
//!   or 16- (aligned heap) aligned buffer therefore presents the records
//!   at `TraceOp`'s 8-byte alignment. A bank offset violating this is a
//!   typed [`SnapshotError::Misaligned`] rejection.
//! * **Endianness** — records are always written little-endian (the
//!   canonical [`TraceOp::to_raw`] layout), and the stamp distinguishes a
//!   container written by a native-byte-order writer on a big-endian
//!   machine ([`SnapshotError::ForeignEndian`]). Little-endian hosts map
//!   records in place; big-endian hosts fall back to the owned decoder,
//!   which parses fields explicitly and is endian-correct everywhere.
//!
//! Every record is validated (same checks as [`TraceOp::from_raw`])
//! exactly once — at decode for the owned path, at map time for the
//! zero-copy path — so even a checksum collision cannot smuggle an op
//! the simulator would choke on.
//!
//! Any other version byte — including the retired version 1, which
//! stored op records inline — is a typed
//! [`SnapshotError::VersionMismatch`]; `traces/` is a cache, so the store
//! quarantines such a file and records the pair afresh.
//! [`program_bytes`] keeps the version-1 single-program encoding as the
//! canonical *fingerprint* byte stream, so content fingerprints — and
//! therefore every report-cache key and artifact — are identical
//! whichever read path (owned or mapped) served the program.

use std::fmt;
use tls_core::experiment::BenchmarkPrograms;
use tls_trace::{Epoch, ProgramView, RawOpError, Region, RegionView, TraceOp, TraceProgram};

/// Magic prefix of every snapshot container.
pub const MAGIC: &[u8; 6] = b"TLSNAP";
/// Current container format version.
pub const VERSION: u8 = 2;
/// Container payload kind: a recorded `(plain, tls)` trace pair.
pub const KIND_TRACE_PAIR: u8 = 1;
/// Container payload kind: a cached simulation report (JSON payload).
pub const KIND_SIM_REPORT: u8 = 2;
/// The byte-order stamp of a version-2 trace-pair payload. Written as a
/// little-endian `u16`; a writer that (incorrectly) used native byte
/// order on a big-endian machine produces the swapped pattern, which the
/// decoder rejects as [`SnapshotError::ForeignEndian`].
pub const ENDIAN_STAMP: u16 = 0x1EAF;

/// Container header length: magic + kind + version + key hash +
/// payload length. The payload starts at this file offset.
pub const HEADER_LEN: usize = 24;
/// Trailing FNV-1a checksum length.
pub const CHECKSUM_LEN: usize = 8;
const RECORD_LEN: usize = 16;
/// The required file-offset alignment of the op bank (a multiple of
/// `TraceOp`'s 8-byte alignment, rounded to the record size so records
/// also never straddle an alignment boundary).
pub const BANK_ALIGN: usize = 16;

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Shorter than header + checksum.
    TooShort(usize),
    /// Magic bytes do not match [`MAGIC`].
    BadMagic,
    /// Container holds a different payload kind than requested.
    KindMismatch {
        /// Kind found in the container.
        found: u8,
        /// Kind the caller asked for.
        expected: u8,
    },
    /// Written by a different format version.
    VersionMismatch {
        /// Version found in the container.
        found: u8,
    },
    /// The stored cache-key hash differs from the requested key (a stale
    /// or misfiled snapshot).
    KeyMismatch {
        /// Hash found in the container.
        found: u64,
        /// Hash the caller derived from its key.
        expected: u64,
    },
    /// The declared payload length disagrees with the file size.
    LengthMismatch {
        /// Payload length declared in the header.
        declared: u64,
        /// Payload bytes actually present.
        present: u64,
    },
    /// The trailing FNV-1a checksum does not match the bytes.
    ChecksumMismatch,
    /// A 16-byte op record failed validation.
    BadOp(RawOpError),
    /// A program name was not valid UTF-8.
    BadUtf8,
    /// An unknown region tag byte.
    BadRegionTag(u8),
    /// The payload ended mid-structure.
    Truncated,
    /// The payload decoded but left unconsumed trailing bytes.
    TrailingBytes(usize),
    /// A JSON payload (sim report) failed to parse.
    BadJson(String),
    /// A version-2 payload carries a byte-swapped endianness stamp: it
    /// was written by a native-byte-order writer on a foreign-endian
    /// machine and its op bank cannot be interpreted.
    ForeignEndian {
        /// The stamp as read little-endian.
        stamp: u16,
    },
    /// A version-2 payload declares a record size other than 16.
    BadRecordSize(u16),
    /// A version-2 op bank starts at a file offset that is not a
    /// multiple of [`BANK_ALIGN`] — in-place record casts would be
    /// misaligned.
    Misaligned {
        /// The bank's byte offset within the file.
        file_offset: usize,
    },
    /// The header's total-op count disagrees with the sum of the
    /// structure section's epoch counts.
    OpCountMismatch {
        /// Count declared in the payload header.
        declared: u64,
        /// Sum of the structure section's epoch counts.
        structured: u64,
    },
    /// The gap between the structure section and the op bank holds
    /// non-zero bytes (the encoding is canonical; padding must be zero).
    BadPadding,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::TooShort(n) => write!(f, "snapshot too short ({n} bytes)"),
            SnapshotError::BadMagic => write!(f, "bad magic (not a TLSNAP container)"),
            SnapshotError::KindMismatch { found, expected } => {
                write!(f, "payload kind {found} where {expected} expected")
            }
            SnapshotError::VersionMismatch { found } => {
                write!(f, "format version {found} (this build reads {VERSION})")
            }
            SnapshotError::KeyMismatch { found, expected } => {
                write!(f, "cache key {found:016x} where {expected:016x} expected")
            }
            SnapshotError::LengthMismatch { declared, present } => {
                write!(f, "declared payload {declared} bytes but {present} present")
            }
            SnapshotError::ChecksumMismatch => write!(f, "checksum mismatch"),
            SnapshotError::BadOp(e) => write!(f, "corrupt op record: {e}"),
            SnapshotError::BadUtf8 => write!(f, "program name is not UTF-8"),
            SnapshotError::BadRegionTag(t) => write!(f, "unknown region tag {t}"),
            SnapshotError::Truncated => write!(f, "payload ends mid-structure"),
            SnapshotError::TrailingBytes(n) => write!(f, "{n} unconsumed payload bytes"),
            SnapshotError::BadJson(e) => write!(f, "report payload is not valid JSON: {e}"),
            SnapshotError::ForeignEndian { stamp } => {
                write!(
                    f,
                    "foreign-endian payload (stamp {stamp:#06x}, expected {ENDIAN_STAMP:#06x})"
                )
            }
            SnapshotError::BadRecordSize(n) => {
                write!(f, "record size {n} (this build reads {RECORD_LEN}-byte records)")
            }
            SnapshotError::Misaligned { file_offset } => {
                write!(f, "op bank at file offset {file_offset} is not {BANK_ALIGN}-byte aligned")
            }
            SnapshotError::OpCountMismatch { declared, structured } => {
                write!(f, "header declares {declared} ops but the structure sums to {structured}")
            }
            SnapshotError::BadPadding => write!(f, "non-zero padding before the op bank"),
        }
    }
}

impl SnapshotError {
    /// A stable machine-greppable code for this failure class, written
    /// into the quarantine reason files next to the human-readable
    /// rendering (so `traces/quarantine/` can be triaged by code even
    /// when the wording above evolves).
    pub fn code(&self) -> &'static str {
        match self {
            SnapshotError::TooShort(_) => "too-short",
            SnapshotError::BadMagic => "bad-magic",
            SnapshotError::KindMismatch { .. } => "kind-mismatch",
            SnapshotError::VersionMismatch { .. } => "version-mismatch",
            SnapshotError::KeyMismatch { .. } => "key-mismatch",
            SnapshotError::LengthMismatch { .. } => "length-mismatch",
            SnapshotError::ChecksumMismatch => "checksum-mismatch",
            SnapshotError::BadOp(_) => "bad-op",
            SnapshotError::BadUtf8 => "bad-utf8",
            SnapshotError::BadRegionTag(_) => "bad-region-tag",
            SnapshotError::Truncated => "truncated",
            SnapshotError::TrailingBytes(_) => "trailing-bytes",
            SnapshotError::BadJson(_) => "bad-json",
            SnapshotError::ForeignEndian { .. } => "foreign-endian",
            SnapshotError::BadRecordSize(_) => "bad-record-size",
            SnapshotError::Misaligned { .. } => "misaligned-bank",
            SnapshotError::OpCountMismatch { .. } => "op-count-mismatch",
            SnapshotError::BadPadding => "bad-padding",
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<RawOpError> for SnapshotError {
    fn from(e: RawOpError) -> Self {
        SnapshotError::BadOp(e)
    }
}

/// A streaming FNV-1a-64 hasher: the container checksum, the cache-key
/// fingerprint hash, and the content-fingerprint stream — without ever
/// materializing the hashed bytes.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// FNV-1a 64-bit over `bytes` (one-shot form of [`Fnv`]).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut f = Fnv::new();
    f.update(bytes);
    f.finish()
}

/// Wraps `payload` in a checksummed container.
pub fn encode_container(kind: u8, key_hash: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(MAGIC);
    out.push(kind);
    out.push(VERSION);
    out.extend_from_slice(&key_hash.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Verifies a container's framing and returns its payload slice.
pub fn decode_container(bytes: &[u8], kind: u8, key_hash: u64) -> Result<&[u8], SnapshotError> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(SnapshotError::TooShort(bytes.len()));
    }
    if &bytes[0..6] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes[6] != kind {
        return Err(SnapshotError::KindMismatch { found: bytes[6], expected: kind });
    }
    if bytes[7] != VERSION {
        return Err(SnapshotError::VersionMismatch { found: bytes[7] });
    }
    let found_key = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let declared = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let present = (bytes.len() - HEADER_LEN - CHECKSUM_LEN) as u64;
    if declared != present {
        return Err(SnapshotError::LengthMismatch { declared, present });
    }
    let body_end = bytes.len() - CHECKSUM_LEN;
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    if fnv1a(&bytes[..body_end]) != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }
    // Key verified after integrity so a flipped key bit reads as
    // corruption, not as somebody else's (valid) snapshot.
    if found_key != key_hash {
        return Err(SnapshotError::KeyMismatch { found: found_key, expected: key_hash });
    }
    Ok(&bytes[HEADER_LEN..body_end])
}

// ---------------------------------------------------------------------------
// Canonical fingerprint encoding (version-1 program layout).
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_epoch_v1(out: &mut Vec<u8>, ops: &[TraceOp]) {
    put_u32(out, ops.len() as u32);
    for op in ops {
        out.extend_from_slice(&op.to_raw());
    }
}

fn encode_program_v1(out: &mut Vec<u8>, view: &ProgramView<'_>) {
    put_u32(out, view.name.len() as u32);
    out.extend_from_slice(view.name.as_bytes());
    put_u32(out, view.regions.len() as u32);
    for region in &view.regions {
        match region {
            RegionView::Sequential(e) => {
                out.push(0);
                encode_epoch_v1(out, e);
            }
            RegionView::Parallel(es) => {
                out.push(1);
                put_u32(out, es.len() as u32);
                for e in es {
                    encode_epoch_v1(out, e);
                }
            }
        }
    }
}

/// Serializes one program in the canonical (version-1) byte layout —
/// the content-fingerprint stream. [`fingerprint_view`] hashes exactly
/// these bytes without materializing them.
pub fn program_bytes(program: &TraceProgram) -> Vec<u8> {
    // 16 bytes per op plus a small framing overhead.
    let mut out = Vec::with_capacity(16 * program.total_ops() + 64);
    encode_program_v1(&mut out, &program.view());
    out
}

/// Streams a view's canonical byte encoding through FNV-1a without
/// allocating: `fingerprint_view(&p.view()) == fnv1a(&program_bytes(&p))`
/// for every program, whichever read path (owned or memory-mapped)
/// produced the view. This identity is what keeps report-cache keys and
/// artifacts byte-identical across container versions.
pub fn fingerprint_view(view: &ProgramView<'_>) -> u64 {
    let mut f = Fnv::new();
    f.update(&(view.name.len() as u32).to_le_bytes());
    f.update(view.name.as_bytes());
    f.update(&(view.regions.len() as u32).to_le_bytes());
    for region in &view.regions {
        match region {
            RegionView::Sequential(e) => {
                f.update(&[0]);
                fingerprint_epoch(&mut f, e);
            }
            RegionView::Parallel(es) => {
                f.update(&[1]);
                f.update(&(es.len() as u32).to_le_bytes());
                for e in es {
                    fingerprint_epoch(&mut f, e);
                }
            }
        }
    }
    f.finish()
}

fn fingerprint_epoch(f: &mut Fnv, ops: &[TraceOp]) {
    f.update(&(ops.len() as u32).to_le_bytes());
    #[cfg(target_endian = "little")]
    {
        // In-memory layout == canonical wire layout (pinned by the
        // repr(C) assertions in tls-trace): hash the records in bulk.
        f.update(zerocopy::slice_as_bytes(ops));
    }
    #[cfg(not(target_endian = "little"))]
    {
        for op in ops {
            f.update(&op.to_raw());
        }
    }
}

// ---------------------------------------------------------------------------
// Version-2 trace-pair payload.
// ---------------------------------------------------------------------------

/// A contiguous run of records in a version-2 op bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRange {
    /// First record index.
    pub start: usize,
    /// Number of records.
    pub count: usize,
}

/// One region of a [`ProgramLayout`]: epoch extents without the ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionLayout {
    /// A sequential region's single epoch.
    Sequential(OpRange),
    /// A parallel region's epochs, in iteration order.
    Parallel(Vec<OpRange>),
}

/// The structural skeleton of one program in a version-2 payload: the
/// name plus record extents into the shared op bank. Tiny (a few dozen
/// bytes per region) regardless of trace size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramLayout {
    /// Human-readable benchmark name.
    pub name: String,
    /// The regions, in execution order.
    pub regions: Vec<RegionLayout>,
}

impl ProgramLayout {
    /// Builds a borrowed [`ProgramView`] over a casted op bank.
    pub fn view<'a>(&'a self, bank: &'a [TraceOp]) -> ProgramView<'a> {
        ProgramView {
            name: &self.name,
            regions: self
                .regions
                .iter()
                .map(|r| match r {
                    RegionLayout::Sequential(x) => {
                        RegionView::Sequential(&bank[x.start..x.start + x.count])
                    }
                    RegionLayout::Parallel(es) => RegionView::Parallel(
                        es.iter().map(|x| &bank[x.start..x.start + x.count]).collect(),
                    ),
                })
                .collect(),
        }
    }

    /// Materializes the owned program from a decoded record vector.
    fn to_program(&self, records: &[TraceOp]) -> TraceProgram {
        let regions = self
            .regions
            .iter()
            .map(|r| match r {
                RegionLayout::Sequential(x) => {
                    Region::Sequential(Epoch::new(records[x.start..x.start + x.count].to_vec()))
                }
                RegionLayout::Parallel(es) => Region::Parallel(
                    es.iter()
                        .map(|x| Epoch::new(records[x.start..x.start + x.count].to_vec()))
                        .collect(),
                ),
            })
            .collect();
        TraceProgram::new(self.name.clone(), regions)
    }
}

/// The parsed skeleton of a version-2 trace-pair payload: both program
/// layouts plus the bank geometry. Holds no ops — pair it with the
/// payload bytes (see [`PairLayout::bank`]) to read records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairLayout {
    /// The unmodified execution's skeleton.
    pub plain: ProgramLayout,
    /// The TLS-transformed execution's skeleton.
    pub tls: ProgramLayout,
    /// Byte offset of the op bank within the payload.
    pub bank_offset: usize,
    /// Total records in the bank (plain's ops first, then TLS's).
    pub total_ops: usize,
}

impl PairLayout {
    /// The raw op-bank bytes of `payload`.
    pub fn bank<'a>(&self, payload: &'a [u8]) -> &'a [u8] {
        &payload[self.bank_offset..]
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn name(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        Ok(std::str::from_utf8(self.take(len)?).map_err(|_| SnapshotError::BadUtf8)?.to_string())
    }
}

/// The smallest bank offset `>= min` that lands the bank on a
/// [`BANK_ALIGN`]-aligned *file* offset (the payload begins at file
/// offset [`HEADER_LEN`]).
fn bank_offset_for(min: usize) -> usize {
    let mut off = min;
    while !(HEADER_LEN + off).is_multiple_of(BANK_ALIGN) {
        off += 1;
    }
    off
}

fn encode_structure(out: &mut Vec<u8>, view: &ProgramView<'_>) {
    put_u32(out, view.name.len() as u32);
    out.extend_from_slice(view.name.as_bytes());
    put_u32(out, view.regions.len() as u32);
    for region in &view.regions {
        match region {
            RegionView::Sequential(e) => {
                out.push(0);
                put_u32(out, e.len() as u32);
            }
            RegionView::Parallel(es) => {
                out.push(1);
                put_u32(out, es.len() as u32);
                for e in es {
                    put_u32(out, e.len() as u32);
                }
            }
        }
    }
}

fn append_bank(out: &mut Vec<u8>, view: &ProgramView<'_>) {
    let mut push = |ops: &[TraceOp]| {
        #[cfg(target_endian = "little")]
        out.extend_from_slice(zerocopy::slice_as_bytes(ops));
        #[cfg(not(target_endian = "little"))]
        for op in ops {
            out.extend_from_slice(&op.to_raw());
        }
    };
    for region in &view.regions {
        match region {
            RegionView::Sequential(e) => push(e),
            RegionView::Parallel(es) => {
                for e in es {
                    push(e);
                }
            }
        }
    }
}

/// Serializes a `(plain, tls)` pair as a version-2 (kind-1) payload.
pub fn encode_pair(pair: &BenchmarkPrograms) -> Vec<u8> {
    encode_pair_views(&pair.plain.view(), &pair.tls.view())
}

/// As [`encode_pair`], from borrowed views (the healing path for mapped
/// snapshots needs no owned pair).
pub fn encode_pair_views(plain: &ProgramView<'_>, tls: &ProgramView<'_>) -> Vec<u8> {
    let mut structure = Vec::new();
    encode_structure(&mut structure, plain);
    encode_structure(&mut structure, tls);
    let total_ops = plain.total_ops() + tls.total_ops();
    let bank_offset = bank_offset_for(16 + structure.len());
    let mut out = Vec::with_capacity(bank_offset + RECORD_LEN * total_ops);
    out.extend_from_slice(&ENDIAN_STAMP.to_le_bytes());
    out.extend_from_slice(&(RECORD_LEN as u16).to_le_bytes());
    out.extend_from_slice(&(bank_offset as u32).to_le_bytes());
    out.extend_from_slice(&(total_ops as u64).to_le_bytes());
    out.extend_from_slice(&structure);
    out.resize(bank_offset, 0);
    append_bank(&mut out, plain);
    append_bank(&mut out, tls);
    out
}

fn parse_structure(r: &mut Reader<'_>, cursor: &mut usize) -> Result<ProgramLayout, SnapshotError> {
    let name = r.name()?;
    let region_count = r.u32()? as usize;
    // Each region costs at least 5 structure bytes; bound the allocation
    // by the bytes actually present.
    if region_count > (r.bytes.len() - r.pos) / 5 + 1 {
        return Err(SnapshotError::Truncated);
    }
    let mut regions = Vec::with_capacity(region_count);
    let range = |cursor: &mut usize, count: usize| {
        let start = *cursor;
        *cursor += count;
        OpRange { start, count }
    };
    for _ in 0..region_count {
        regions.push(match r.u8()? {
            0 => RegionLayout::Sequential(range(cursor, r.u32()? as usize)),
            1 => {
                let n = r.u32()? as usize;
                if n > (r.bytes.len() - r.pos) / 4 + 1 {
                    return Err(SnapshotError::Truncated);
                }
                let mut epochs = Vec::with_capacity(n);
                for _ in 0..n {
                    epochs.push(range(cursor, r.u32()? as usize));
                }
                RegionLayout::Parallel(epochs)
            }
            tag => return Err(SnapshotError::BadRegionTag(tag)),
        });
    }
    Ok(ProgramLayout { name, regions })
}

/// Parses and validates the skeleton of a version-2 trace-pair payload:
/// stamp, record size, bank alignment and extent, padding, and the
/// op-count identity. Does **not** validate individual records — the
/// owned decoder validates while materializing, the map path validates
/// once per map via [`validate_bank`].
pub fn parse_pair_layout(payload: &[u8]) -> Result<PairLayout, SnapshotError> {
    let mut r = Reader { bytes: payload, pos: 0 };
    let stamp = r.u16()?;
    if stamp != ENDIAN_STAMP {
        return Err(if stamp == ENDIAN_STAMP.swap_bytes() {
            SnapshotError::ForeignEndian { stamp }
        } else {
            // An unrecognizable stamp is corruption, not a byte order.
            SnapshotError::ForeignEndian { stamp }
        });
    }
    let record = r.u16()?;
    if record as usize != RECORD_LEN {
        return Err(SnapshotError::BadRecordSize(record));
    }
    let bank_offset = r.u32()? as usize;
    let declared_ops = r.u64()?;
    if bank_offset > payload.len() {
        return Err(SnapshotError::Truncated);
    }
    if !(HEADER_LEN + bank_offset).is_multiple_of(BANK_ALIGN) {
        return Err(SnapshotError::Misaligned { file_offset: HEADER_LEN + bank_offset });
    }
    let mut cursor = 0usize;
    let structure = &payload[..bank_offset];
    let mut sr = Reader { bytes: structure, pos: r.pos };
    let plain = parse_structure(&mut sr, &mut cursor)?;
    let tls = parse_structure(&mut sr, &mut cursor)?;
    if structure[sr.pos..].iter().any(|&b| b != 0) {
        return Err(SnapshotError::BadPadding);
    }
    if cursor as u64 != declared_ops {
        return Err(SnapshotError::OpCountMismatch {
            declared: declared_ops,
            structured: cursor as u64,
        });
    }
    let bank_len = payload.len() - bank_offset;
    let need = declared_ops.checked_mul(RECORD_LEN as u64).ok_or(SnapshotError::Truncated)?;
    if (bank_len as u64) < need {
        return Err(SnapshotError::Truncated);
    }
    if (bank_len as u64) > need {
        return Err(SnapshotError::TrailingBytes(bank_len - need as usize));
    }
    Ok(PairLayout { plain, tls, bank_offset, total_ops: cursor })
}

/// Validates every record of a version-2 op bank — the once-per-map
/// semantic pass that licenses serving records in place thereafter.
/// Alignment-independent: uses the bulk zerocopy cast when the bytes are
/// aligned, field-wise decoding otherwise.
pub fn validate_bank(bank: &[u8]) -> Result<(), SnapshotError> {
    #[cfg(target_endian = "little")]
    if let Ok(ops) = zerocopy::slice_from_bytes::<TraceOp>(bank) {
        for op in ops {
            op.validate()?;
        }
        return Ok(());
    }
    for raw in bank.chunks_exact(RECORD_LEN) {
        TraceOp::from_raw(raw.try_into().expect("16 bytes"))?;
    }
    Ok(())
}

/// Casts a (validated) op bank to records in place. Fails with a typed
/// error if the bytes are misaligned for `TraceOp` — the caller's buffer
/// must be [`BANK_ALIGN`]-aligned — or on a big-endian host, where the
/// in-memory layout does not match the little-endian wire records.
pub fn cast_bank(bank: &[u8]) -> Result<&[TraceOp], SnapshotError> {
    #[cfg(target_endian = "little")]
    {
        zerocopy::slice_from_bytes::<TraceOp>(bank).map_err(|e| match e {
            zerocopy::CastError::Misaligned { offset, .. } => {
                SnapshotError::Misaligned { file_offset: offset }
            }
            zerocopy::CastError::SizeMismatch { len, .. } => {
                SnapshotError::TrailingBytes(len % RECORD_LEN)
            }
        })
    }
    #[cfg(not(target_endian = "little"))]
    {
        let _ = bank;
        Err(SnapshotError::ForeignEndian { stamp: ENDIAN_STAMP.swap_bytes() })
    }
}

/// Decodes a version-2 (kind-1) payload into an owned `(plain, tls)`
/// pair, validating every record. Endian-correct on every host.
pub fn decode_pair(payload: &[u8]) -> Result<BenchmarkPrograms, SnapshotError> {
    let layout = parse_pair_layout(payload)?;
    let bank = layout.bank(payload);
    let mut records = Vec::with_capacity(layout.total_ops);
    for raw in bank.chunks_exact(RECORD_LEN) {
        records.push(TraceOp::from_raw(raw.try_into().expect("16 bytes"))?);
    }
    Ok(BenchmarkPrograms {
        plain: layout.plain.to_program(&records),
        tls: layout.tls.to_program(&records),
    })
}

// ---------------------------------------------------------------------------
// Whole-file forms.
// ---------------------------------------------------------------------------

/// Encodes a pair as a complete (version-2) container file image.
pub fn encode_pair_file(key_hash: u64, pair: &BenchmarkPrograms) -> Vec<u8> {
    encode_container(KIND_TRACE_PAIR, key_hash, &encode_pair(pair))
}

/// Decodes a container file image back into an owned pair, verifying
/// framing, checksum and key.
pub fn decode_pair_file(bytes: &[u8], key_hash: u64) -> Result<BenchmarkPrograms, SnapshotError> {
    decode_pair(decode_container(bytes, KIND_TRACE_PAIR, key_hash)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_trace::{Addr, LatchId, OpSink, Pc, ProgramBuilder};

    fn sample_pair() -> BenchmarkPrograms {
        let mut plain = ProgramBuilder::new("plain");
        plain.int_ops(Pc::new(0, 0), 10);
        plain.load(Pc::new(0, 1), Addr(0x40), 8);
        let plain = plain.finish();
        let mut tls = ProgramBuilder::new("tls");
        tls.int_ops(Pc::new(0, 2), 2);
        tls.begin_parallel();
        for i in 0..3u64 {
            tls.begin_epoch();
            tls.store(Pc::new(1, i as u16), Addr(0x100 + 8 * i), 8);
            tls.latch_acquire(Pc::new(1, 100), LatchId(4));
            tls.latch_release(Pc::new(1, 101), LatchId(4));
            tls.end_epoch();
        }
        tls.end_parallel();
        let tls = tls.finish();
        BenchmarkPrograms { plain, tls }
    }

    fn programs_equal(a: &TraceProgram, b: &TraceProgram) -> bool {
        a.name == b.name
            && a.regions.len() == b.regions.len()
            && a.iter_ops().zip(b.iter_ops()).all(|(x, y)| x == y)
            && a.total_ops() == b.total_ops()
    }

    #[test]
    fn pair_round_trips() {
        let pair = sample_pair();
        let file = encode_pair_file(0xABCD, &pair);
        let back = decode_pair_file(&file, 0xABCD).expect("decode");
        assert!(programs_equal(&pair.plain, &back.plain));
        assert!(programs_equal(&pair.tls, &back.tls));
    }

    #[test]
    fn bank_is_file_aligned_and_layout_parses() {
        let pair = sample_pair();
        let file = encode_pair_file(9, &pair);
        let payload = decode_container(&file, KIND_TRACE_PAIR, 9).expect("framing");
        let layout = parse_pair_layout(payload).expect("layout");
        assert_eq!((HEADER_LEN + layout.bank_offset) % BANK_ALIGN, 0);
        assert_eq!(layout.total_ops, pair.plain.total_ops() + pair.tls.total_ops());
        validate_bank(layout.bank(payload)).expect("records valid");
        assert_eq!(layout.plain.name, "plain");
        assert_eq!(layout.tls.name, "tls");
    }

    #[test]
    fn fingerprints_agree_between_owned_and_view_paths() {
        let pair = sample_pair();
        for p in [&pair.plain, &pair.tls] {
            assert_eq!(fingerprint_view(&p.view()), fnv1a(&program_bytes(p)));
        }
    }

    #[test]
    fn foreign_endian_stamp_is_rejected() {
        let pair = sample_pair();
        let payload = encode_pair(&pair);
        let mut swapped = payload.clone();
        swapped[0..2].copy_from_slice(&ENDIAN_STAMP.swap_bytes().to_le_bytes());
        assert!(matches!(parse_pair_layout(&swapped), Err(SnapshotError::ForeignEndian { .. })));
    }

    #[test]
    fn misaligned_bank_offset_is_rejected() {
        let pair = sample_pair();
        let payload = encode_pair(&pair);
        let layout = parse_pair_layout(&payload).expect("layout");
        let mut bad = payload.clone();
        // Shift the declared bank offset off the alignment grid. (The
        // whole-file decoder would also catch this via the checksum;
        // the layout parser must reject it on its own.)
        bad[4..8].copy_from_slice(&((layout.bank_offset as u32) + 1).to_le_bytes());
        assert!(matches!(parse_pair_layout(&bad), Err(SnapshotError::Misaligned { .. })));
    }

    #[test]
    fn bad_record_size_is_rejected() {
        let pair = sample_pair();
        let mut payload = encode_pair(&pair);
        payload[2..4].copy_from_slice(&8u16.to_le_bytes());
        assert!(matches!(parse_pair_layout(&payload), Err(SnapshotError::BadRecordSize(8))));
    }

    #[test]
    fn op_count_mismatch_is_rejected() {
        let pair = sample_pair();
        let mut payload = encode_pair(&pair);
        let declared = u64::from_le_bytes(payload[8..16].try_into().unwrap());
        payload[8..16].copy_from_slice(&(declared + 1).to_le_bytes());
        assert!(matches!(parse_pair_layout(&payload), Err(SnapshotError::OpCountMismatch { .. })));
    }

    #[test]
    fn every_flipped_byte_is_rejected_or_identical() {
        let pair = sample_pair();
        let file = encode_pair_file(7, &pair);
        for i in 0..file.len() {
            let mut bad = file.clone();
            bad[i] ^= 0x20;
            // Either the framing/checksum rejects it, or (never, for a
            // single flip with FNV over the body) it decodes — it must
            // not silently misdecode.
            assert!(decode_pair_file(&bad, 7).is_err(), "flip at byte {i} was accepted");
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let pair = sample_pair();
        let file = encode_pair_file(7, &pair);
        for len in [0, 10, 23, 24, file.len() / 2, file.len() - 1] {
            assert!(decode_pair_file(&file[..len], 7).is_err(), "truncation to {len} accepted");
        }
    }

    #[test]
    fn wrong_key_version_and_kind_are_rejected() {
        let pair = sample_pair();
        let file = encode_pair_file(7, &pair);
        assert!(matches!(
            decode_pair_file(&file, 8),
            Err(SnapshotError::KeyMismatch { found: 7, expected: 8 })
        ));
        // Version is checked before the checksum, so a retired (1) or
        // future-format file reads as a version mismatch (then gets
        // re-recorded), not as corruption.
        for version in [1, VERSION + 1] {
            let mut wrong_version = file.clone();
            wrong_version[7] = version;
            assert_eq!(
                decode_pair_file(&wrong_version, 7).err(),
                Some(SnapshotError::VersionMismatch { found: version })
            );
        }
        let report = encode_container(KIND_SIM_REPORT, 7, b"{}");
        assert!(matches!(
            decode_pair_file(&report, 7),
            Err(SnapshotError::KindMismatch { found: KIND_SIM_REPORT, expected: KIND_TRACE_PAIR })
        ));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a-64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        let mut streaming = Fnv::new();
        streaming.update(b"foo");
        streaming.update(b"bar");
        assert_eq!(streaming.finish(), 0x85944171f73967e8);
    }
}
