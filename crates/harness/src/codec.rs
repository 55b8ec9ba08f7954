//! The versioned, sealed snapshot container and the binary trace codec.
//!
//! Every file the harness writes under `traces/` is one *container*: a
//! fixed 24-byte [`ContainerHeader`] (magic `TLSNAP`, payload kind, format
//! version [`VERSION`], cache-key hash and payload length; its offset
//! table is on the struct), the payload, and the seal of everything
//! before it:
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0  | 24 | [`ContainerHeader`] |
//! | 24 | n | payload |
//! | 24 + n | 8 | seal of bytes `0 .. 24 + n`, little-endian |
//!
//! Both kinds are sealed with [`Seal`], a four-lane word hash (below): a
//! report is a few kilobytes of JSON, a trace pair up to a few hundred
//! megabytes.
//!
//! [`decode_container`] checks magic, kind, version and length, then the
//! seal, then the key hash, before it hands out a single payload byte, so
//! a corrupt or truncated snapshot is rejected — never misdecoded. The
//! trace-pair reader ([`crate::mapped`]) keeps that contract in one walk:
//! after the same header checks it parses the trace-pair *structure* from
//! the still-unverified payload, only to learn where the op bank begins
//! (a bounded parse with typed errors), and then folds the body into the
//! seal and checks every record in the same loop
//! (`Seal::update_records`). Nothing from the payload — view,
//! fingerprint or op — is handed out before the seal and the key verify,
//! and a payload whose structure does not parse is judged by its seal
//! alone, so every corrupt file gets the same [`SnapshotError`] either
//! way: a bad seal outranks a bad layout, which outranks a bad record.
//!
//! The write path is one walk too. [`PairEncoder`] builds the few hundred
//! bytes before the op bank, then streams each epoch's records straight
//! from the programs to its writer, folding each slice into the container
//! seal and its program's records seal on the way, writes the
//! fingerprints as the trailer, and returns the [`PairDigest`].
//! [`encode_pair_file`] is that walk into a buffer; the store's is into
//! the snapshot's temp file, so no whole-container buffer exists. A file
//! the store has just written is served after a byte comparison with what
//! was streamed ([`PairEncoder::wrote`]), not a second hash of the file.
//!
//! # Version-4 trace-pair payload: the zero-copy record bank
//!
//! The `(plain, tls)` trace pair is a fixed [`PairHeader`], a compact
//! *structure section*, an aligned *op bank*, so the 16-byte [`TraceOp`]
//! records can be served in place from a memory map (the `zerocopy`
//! `FromBytes` idiom) instead of decoded into owned buffers, and a
//! *trailer* of content fingerprints:
//!
//! | payload offset | size | field |
//! |---|---|---|
//! | 0 | 16 | [`PairHeader`]: endianness stamp, record size, bank offset, total records |
//! | 16 | — | structure section (see below) |
//! | … | — | zero padding to the bank offset |
//! | bank offset | 16 × total | op records, [`TraceOp::to_raw`] layout |
//! | bank end | 32 | trailer: the plain, TLS, serialized-plain and serialized-TLS fingerprints, each a little-endian `u64` |
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
//!   begins at a *file* offset that is a multiple of [`BANK_ALIGN`] (32);
//!   any page- (mmap) or 16- (aligned heap) aligned buffer therefore
//!   presents the records at `TraceOp`'s 8-byte alignment, and each
//!   32-byte block of the seal is exactly two records. A bank offset
//!   violating this is a typed [`SnapshotError::Misaligned`] rejection.
//! * **Endianness** — records are always written little-endian (the
//!   canonical [`TraceOp::to_raw`] layout), and the stamp distinguishes a
//!   container written by a native-byte-order writer on a big-endian
//!   machine ([`SnapshotError::ForeignEndian`]). The only reader,
//!   [`crate::mapped::TraceView`], serves records in place, so only a
//!   little-endian host reads trace pairs; a big-endian host's store
//!   records every pair afresh and neither reads nor writes them.
//!
//! Every record is validated (the rules of [`TraceOp::validate`]) exactly
//! once, at map time, so even a seal collision cannot smuggle an op the
//! simulator would choke on.
//!
//! Any other version byte is a typed [`SnapshotError::VersionMismatch`]:
//! the retired version 1, which stored op records inline; version 2,
//! which had no trailer and sealed with FNV-1a-64; and version 3, whose
//! trailer held FNV-1a fingerprints. `traces/` is a cache, so the store
//! quarantines such a file and records the pair, or simulates the report,
//! afresh. Cache keys moved with the fingerprints, so most older files
//! are simply never asked for again under their old names.
//!
//! # The seal
//!
//! [`Seal`] reads the body (header and payload) as little-endian 64-bit
//! words, zero-padded to a whole number of 32-byte blocks; word `4k + i`
//! feeds lane `i`. The lanes start at `[P1 + P2, P2, 0, -P1]`, and each
//! word steps its lane as `l ← rotl(l + w·P2, 31)·P1` (the xxHash64 round
//! and primes, all arithmetic mod 2⁶⁴). The seal is the xxHash64 final
//! mix of `rotl(l0, 1) + rotl(l1, 7) + rotl(l2, 12) + rotl(l3, 18) + n`,
//! where `n` is the body's length in bytes.
//!
//! For a fixed lane state the step is injective in the word (`P2` is
//! odd), and for a fixed word it is a bijection of the lane state (an
//! add, a rotation and an odd multiply). So a change confined to one word
//! changes its lane's final state; the merge is a bijection of each lane
//! with the others held, and the final mix is a bijection: the seal
//! changes. Every single-byte flip, and every change inside one aligned
//! 8-byte word, is caught without exception. The four lanes are
//! independent, so four multiplies are in flight at once and the hash
//! runs at memory speed, where a byte-serial hash such as FNV-1a holds a
//! walk to one dependent multiply, about four host cycles, per byte.
//!
//! # Program fingerprints
//!
//! Every report-cache key and sweep row is built from a program's content
//! fingerprint, and SEQUENTIAL and TLS-SEQ runs need the fingerprint of
//! each program's *serialized* form, where every parallel region is one
//! sequential run of its ops. A fingerprint is the [`Seal`] of three
//! things, in order:
//!
//! ```text
//! fingerprint = seal(name ‖ structure ‖ le64(seal(records)))
//! ```
//!
//! The name and the region structure are in the structure-section
//! encoding above; the serialized form writes each parallel region as a
//! sequential region of all its ops. The records are every op's wire
//! bytes in program order, sealed on their own. A program and its
//! serialized form hold the same records in the same order, so they share
//! that records seal, and each record is hashed once for both
//! fingerprints. The two differ only in structure, so they are equal
//! exactly when the program has no parallel region. A change to one word
//! of one record changes the records seal and so the fingerprint.
//!
//! One function turns a program's skeleton and records seal into both of
//! its fingerprints (`ProgramLayout::fingerprints`), and the writer,
//! [`digest_pair`] and [`fingerprint_view`] all go through it. The writer
//! folds each program's records seal on its walk over the bank and writes
//! the four fingerprints as the trailer, inside the seal; the reader
//! verifies the seal — which covers the trailer like any other byte — and
//! serves them without a pass over the bank. A corrupt trailer is a bad
//! seal. Debug builds recompute all four on every open and assert that
//! they equal the trailer ([`crate::mapped`]), and [`digest_pair`] is the
//! independent recompute tests compare against.

use std::convert::Infallible;
use std::fmt;
use std::io::{self, Write};
use std::mem::{align_of, offset_of, size_of};
use tls_core::experiment::BenchmarkPrograms;
use tls_trace::{ProgramView, RawOpError, RegionView, TraceOp};
use zerocopy::{FromBytes, Immutable, IntoBytes, KnownLayout};

/// Magic prefix of every snapshot container.
pub const MAGIC: &[u8; 6] = b"TLSNAP";
/// Container payload kind: a recorded `(plain, tls)` trace pair.
pub const KIND_TRACE_PAIR: u8 = 1;
/// Container payload kind: a cached simulation report (JSON payload).
pub const KIND_SIM_REPORT: u8 = 2;
/// Format version of every container: sealed with [`Seal`], and a trace
/// pair's trailer carries its [`Seal`]-based program fingerprints.
pub const VERSION: u8 = 4;
/// The byte-order stamp of a trace-pair payload. Written as a
/// little-endian `u16`; a writer that (incorrectly) used native byte
/// order on a big-endian machine produces the swapped pattern, which the
/// decoder rejects as [`SnapshotError::ForeignEndian`].
pub const ENDIAN_STAMP: u16 = 0x1EAF;

/// Container header length: the size of [`ContainerHeader`]. The payload
/// starts at this file offset.
pub const HEADER_LEN: usize = 24;
/// Trailing seal length.
pub const CHECKSUM_LEN: usize = 8;
const RECORD_LEN: usize = 16;
/// The length of a trace pair's fingerprint trailer: four `u64`s.
const TRAILER_LEN: usize = 32;
/// The required file-offset alignment of the op bank: one [`Seal`]
/// block, so each block of the bank is exactly two records (and a
/// multiple of `TraceOp`'s 8-byte alignment).
pub const BANK_ALIGN: usize = SEAL_BLOCK;

/// The fixed header at file offset 0 of every container. It is read and
/// written in place through the zerocopy casts: every field is a byte
/// array, so the struct has no padding and alignment 1 and casts from any
/// buffer. Multi-byte fields are little-endian.
///
/// | offset | size | field |
/// |---|---|---|
/// | 0  | 6 | magic [`MAGIC`] |
/// | 6  | 1 | payload kind ([`KIND_TRACE_PAIR`] or [`KIND_SIM_REPORT`]) |
/// | 7  | 1 | format version ([`VERSION`]) |
/// | 8  | 8 | cache-key hash (see [`crate::store`]) |
/// | 16 | 8 | payload length in bytes |
#[derive(Debug, Clone, Copy, FromBytes, IntoBytes, Immutable, KnownLayout)]
#[repr(C)]
pub struct ContainerHeader {
    magic: [u8; 6],
    kind: u8,
    version: u8,
    key_hash: [u8; 8],
    payload_len: [u8; 8],
}

/// The fixed header at the front of a trace-pair payload (file offset
/// [`HEADER_LEN`]), cast in place like [`ContainerHeader`]:
///
/// | payload offset | size | field |
/// |---|---|---|
/// | 0 | 2 | endianness stamp [`ENDIAN_STAMP`] |
/// | 2 | 2 | record size in bytes (16) |
/// | 4 | 4 | op-bank offset within the payload |
/// | 8 | 8 | total op records in the bank |
#[derive(Debug, Clone, Copy, FromBytes, IntoBytes, Immutable, KnownLayout)]
#[repr(C)]
pub struct PairHeader {
    stamp: [u8; 2],
    record_len: [u8; 2],
    bank_offset: [u8; 4],
    total_ops: [u8; 8],
}

// The offset tables above are what the casts read; `repr(C)` over byte
// arrays lays the fields out in order with no padding.
const _: () = {
    assert!(size_of::<ContainerHeader>() == HEADER_LEN && align_of::<ContainerHeader>() == 1);
    assert!(offset_of!(ContainerHeader, kind) == 6 && offset_of!(ContainerHeader, version) == 7);
    assert!(offset_of!(ContainerHeader, key_hash) == 8);
    assert!(offset_of!(ContainerHeader, payload_len) == 16);
    assert!(size_of::<PairHeader>() == 16 && align_of::<PairHeader>() == 1);
    assert!(offset_of!(PairHeader, record_len) == 2 && offset_of!(PairHeader, bank_offset) == 4);
    assert!(offset_of!(PairHeader, total_ops) == 8);
};

impl ContainerHeader {
    fn new(kind: u8, key_hash: u64, payload_len: usize) -> Self {
        ContainerHeader {
            magic: *MAGIC,
            kind,
            version: VERSION,
            key_hash: key_hash.to_le_bytes(),
            payload_len: (payload_len as u64).to_le_bytes(),
        }
    }

    /// The header of a container at least [`HEADER_LEN`] bytes long.
    fn of(bytes: &[u8]) -> &Self {
        Self::ref_from_prefix(bytes).expect("a whole header").0
    }
}

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
        /// The version this build reads ([`VERSION`]).
        expected: u8,
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
    /// The trailing seal (checksum) does not match the bytes.
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
    /// A trace-pair payload carries a byte-swapped endianness stamp: it
    /// was written by a native-byte-order writer on a foreign-endian
    /// machine and its op bank cannot be interpreted.
    ForeignEndian {
        /// The stamp as read little-endian.
        stamp: u16,
    },
    /// A trace-pair payload declares a record size other than 16.
    BadRecordSize(u16),
    /// A trace-pair op bank starts at a file offset that is not a
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
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "format version {found} (this build reads {expected})")
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

/// FNV-1a 64-bit over `bytes`. No snapshot, fingerprint or cache key uses
/// it: it stays for the small stable hashes that committed artifacts
/// already carry (the suite's config hash) and for seeding job orders.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

// ---------------------------------------------------------------------------
// The container seal: a four-lane word hash.
// ---------------------------------------------------------------------------

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;

/// The bytes [`Seal`] folds at a time: one little-endian word per lane.
pub(crate) const SEAL_BLOCK: usize = 32;

/// The streaming seal of a container: a four-lane 64-bit word hash over
/// the body, defined in the [module doc](self). A change
/// confined to one aligned 8-byte word always changes the seal, and the
/// lanes run side by side at memory speed.
#[derive(Debug, Clone)]
pub struct Seal {
    lanes: [u64; 4],
    /// The bytes of a partial block, not yet folded.
    tail: [u8; SEAL_BLOCK],
    tail_len: usize,
    /// Bytes folded so far, the tail included.
    len: u64,
}

/// One lane step: injective in `word`, a bijection of `lane`.
#[inline(always)]
fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

/// The four little-endian words of one block.
#[inline(always)]
fn block_words(block: &[u8]) -> [u64; 4] {
    std::array::from_fn(|i| u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().expect("8")))
}

impl Seal {
    /// A seal over no bytes yet.
    pub fn new() -> Self {
        Seal {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            tail: [0; SEAL_BLOCK],
            tail_len: 0,
            len: 0,
        }
    }

    fn fold(&mut self, words: [u64; 4]) {
        for (lane, word) in self.lanes.iter_mut().zip(words) {
            *lane = round(*lane, word);
        }
    }

    /// Folds `bytes` into the seal.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let n = (SEAL_BLOCK - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + n].copy_from_slice(&bytes[..n]);
            self.tail_len += n;
            bytes = &bytes[n..];
            if self.tail_len < SEAL_BLOCK {
                return;
            }
            self.fold(block_words(&self.tail));
            self.tail_len = 0;
        }
        let mut blocks = bytes.chunks_exact(SEAL_BLOCK);
        for block in &mut blocks {
            self.fold(block_words(block));
        }
        let rest = blocks.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// Folds `bank` — whole blocks of op records, starting on a block
    /// boundary of the seal — and checks every record against
    /// [`TraceOp::wire_valid`] in the same loop, from the words the seal
    /// reads anyway. Returns whether every record passed.
    pub(crate) fn update_records(&mut self, bank: &[u8]) -> bool {
        assert!(self.tail_len == 0 && bank.len().is_multiple_of(SEAL_BLOCK), "whole blocks");
        self.len += bank.len() as u64;
        let [mut a, mut b, mut c, mut d] = self.lanes;
        let mut valid = true;
        for block in bank.chunks_exact(SEAL_BLOCK) {
            let [w0, w1, w2, w3] = block_words(block);
            (a, b, c, d) = (round(a, w0), round(b, w1), round(c, w2), round(d, w3));
            valid &= TraceOp::wire_valid(w0, w1) & TraceOp::wire_valid(w2, w3);
        }
        self.lanes = [a, b, c, d];
        valid
    }

    /// The seal of every byte folded so far.
    pub fn finish(&self) -> u64 {
        let mut last = self.clone();
        if last.tail_len > 0 {
            last.tail[last.tail_len..].fill(0);
            last.fold(block_words(&last.tail));
        }
        let [a, b, c, d] = last.lanes;
        let mut h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18))
            .wrapping_add(self.len);
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

impl Default for Seal {
    fn default() -> Self {
        Seal::new()
    }
}

/// The [`Seal`] of `bytes` (one-shot form).
pub fn seal(bytes: &[u8]) -> u64 {
    let mut s = Seal::new();
    s.update(bytes);
    s.finish()
}

// ---------------------------------------------------------------------------
// The container.
// ---------------------------------------------------------------------------

/// Wraps `payload` in a sealed container of payload `kind`.
pub fn encode_container(kind: u8, key_hash: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(ContainerHeader::new(kind, key_hash, payload.len()).as_bytes());
    out.extend_from_slice(payload);
    let sum = seal(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Verifies a container's framing and returns its payload slice.
pub fn decode_container(bytes: &[u8], kind: u8, key_hash: u64) -> Result<&[u8], SnapshotError> {
    let payload = check_header(bytes, kind)?;
    verify_seal(bytes, seal(&bytes[..bytes.len() - CHECKSUM_LEN]), key_hash)?;
    Ok(payload)
}

/// The header half of [`decode_container`]: magic, kind, version and
/// length, reading no payload byte. Returns the payload, which is **not**
/// yet verified — pair with [`verify_seal`] before trusting any of it.
pub(crate) fn check_header(bytes: &[u8], kind: u8) -> Result<&[u8], SnapshotError> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(SnapshotError::TooShort(bytes.len()));
    }
    let header = ContainerHeader::of(bytes);
    if header.magic != *MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if header.kind != kind {
        return Err(SnapshotError::KindMismatch { found: header.kind, expected: kind });
    }
    if header.version != VERSION {
        return Err(SnapshotError::VersionMismatch { found: header.version, expected: VERSION });
    }
    let declared = u64::from_le_bytes(header.payload_len);
    let present = (bytes.len() - HEADER_LEN - CHECKSUM_LEN) as u64;
    if declared != present {
        return Err(SnapshotError::LengthMismatch { declared, present });
    }
    Ok(&bytes[HEADER_LEN..bytes.len() - CHECKSUM_LEN])
}

/// The seal half of [`decode_container`], for a container that passed
/// [`check_header`]: the stored seal must equal `checksum` (the [`seal`]
/// of header + payload), and then the stored key must equal `key_hash`.
pub(crate) fn verify_seal(bytes: &[u8], checksum: u64, key_hash: u64) -> Result<(), SnapshotError> {
    let body_end = bytes.len() - CHECKSUM_LEN;
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    if checksum != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }
    // Key verified after integrity so a flipped key bit reads as
    // corruption, not as somebody else's (valid) snapshot.
    let found_key = u64::from_le_bytes(ContainerHeader::of(bytes).key_hash);
    if found_key != key_hash {
        return Err(SnapshotError::KeyMismatch { found: found_key, expected: key_hash });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Version-4 trace-pair payload.
// ---------------------------------------------------------------------------

/// A contiguous run of records in an op bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRange {
    /// First record index.
    pub start: usize,
    /// Number of records.
    pub count: usize,
}

impl OpRange {
    /// The next `count` records from `*cursor` on, advancing the cursor.
    fn next(cursor: &mut usize, count: usize) -> Self {
        let start = *cursor;
        *cursor += count;
        OpRange { start, count }
    }
}

/// One region of a [`ProgramLayout`]: epoch extents without the ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionLayout {
    /// A sequential region's single epoch.
    Sequential(OpRange),
    /// A parallel region's epochs, in iteration order.
    Parallel(Vec<OpRange>),
}

impl RegionLayout {
    /// The region's records across all its epochs.
    fn ops(&self) -> usize {
        match self {
            RegionLayout::Sequential(x) => x.count,
            RegionLayout::Parallel(es) => es.iter().map(|x| x.count).sum(),
        }
    }
}

/// The structural skeleton of one program in a trace-pair payload: the
/// name plus record extents into the shared op bank. Tiny (a few dozen
/// bytes per region) regardless of trace size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramLayout {
    /// Human-readable benchmark name.
    pub name: String,
    /// The regions, in execution order.
    pub regions: Vec<RegionLayout>,
}

fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

impl ProgramLayout {
    /// The skeleton of `view`, whose records sit in the bank from
    /// `*cursor` on (the cursor is advanced past them).
    fn of(view: &ProgramView<'_>, cursor: &mut usize) -> Self {
        let mut regions = Vec::with_capacity(view.regions.len());
        for region in &view.regions {
            regions.push(match region {
                RegionView::Sequential(e) => {
                    RegionLayout::Sequential(OpRange::next(cursor, e.len()))
                }
                RegionView::Parallel(es) => RegionLayout::Parallel(
                    es.iter().map(|e| OpRange::next(cursor, e.len())).collect(),
                ),
            });
        }
        ProgramLayout { name: view.name.to_string(), regions }
    }

    /// The program's records, all regions together.
    fn total_ops(&self) -> usize {
        self.regions.iter().map(RegionLayout::ops).sum()
    }

    /// Appends the program's structure-section encoding: its own, or with
    /// `serialized`, its serialized form's (each parallel region written
    /// as one sequential region of all its ops).
    fn put_structure(&self, out: &mut Vec<u8>, serialized: bool) {
        put_u32(out, self.name.len());
        out.extend_from_slice(self.name.as_bytes());
        put_u32(out, self.regions.len());
        for region in &self.regions {
            match region {
                RegionLayout::Parallel(es) if !serialized => {
                    out.push(1);
                    put_u32(out, es.len());
                    es.iter().for_each(|x| put_u32(out, x.count));
                }
                region => {
                    out.push(0);
                    put_u32(out, region.ops());
                }
            }
        }
    }

    /// The program's fingerprint and its serialized form's, from the
    /// [`Seal`] of its records: the one definition in the
    /// [module doc](self#program-fingerprints).
    fn fingerprints(&self, records: u64) -> [u64; 2] {
        [false, true].map(|serialized| {
            let mut bytes = Vec::new();
            self.put_structure(&mut bytes, serialized);
            bytes.extend_from_slice(&records.to_le_bytes());
            seal(&bytes)
        })
    }

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

    /// Builds the borrowed *serialized* view over a casted op bank: the
    /// region list of [`serialize_view`], with each parallel region as one
    /// sequential run. A parallel region's epochs are consecutive records
    /// of the bank (the parser assigns extents from a running cursor), so
    /// the run is a single slice from its first epoch to its last — an
    /// empty slice for a region without epochs — and nothing is copied.
    ///
    /// [`serialize_view`]: tls_core::experiment::serialize_view
    pub fn serialized_view<'a>(&'a self, bank: &'a [TraceOp]) -> ProgramView<'a> {
        ProgramView {
            name: &self.name,
            regions: self
                .regions
                .iter()
                .map(|r| {
                    let (start, end) = match r {
                        RegionLayout::Sequential(x) => (x.start, x.start + x.count),
                        RegionLayout::Parallel(es) => match (es.first(), es.last()) {
                            (Some(first), Some(last)) => (first.start, last.start + last.count),
                            _ => (0, 0),
                        },
                    };
                    RegionView::Sequential(&bank[start..end])
                })
                .collect(),
        }
    }
}

/// The epochs of `view` in program order, which is the order of their
/// records in an op bank.
fn epochs_of<'v, 'a>(view: &'v ProgramView<'a>) -> impl Iterator<Item = &'a [TraceOp]> + 'v {
    view.regions
        .iter()
        .flat_map(|r| match r {
            RegionView::Sequential(e) => std::slice::from_ref(e),
            RegionView::Parallel(es) => es.as_slice(),
        })
        .copied()
}

/// Hands the wire bytes of `ops` to `sink`: in one slice where the
/// in-memory layout is the wire layout (little-endian hosts; pinned by
/// the `repr(C)` assertions in tls-trace), record by record elsewhere.
fn op_bytes<X>(ops: &[TraceOp], mut sink: impl FnMut(&[u8]) -> Result<(), X>) -> Result<(), X> {
    #[cfg(target_endian = "little")]
    let done = sink(zerocopy::slice_as_bytes(ops));
    #[cfg(not(target_endian = "little"))]
    let done = ops.iter().try_for_each(|op| sink(&op.to_raw()));
    done
}

/// A program's content fingerprint (the
/// [module doc's definition](self#program-fingerprints)), computed from
/// the view, whichever read path (owned or memory-mapped) produced it.
/// The fingerprint of a serialized form is this function of the
/// serialized view.
pub fn fingerprint_view(view: &ProgramView<'_>) -> u64 {
    let mut records = Seal::new();
    for ops in epochs_of(view) {
        let Ok(()) = op_bytes(ops, |bytes| {
            records.update(bytes);
            Ok::<(), Infallible>(())
        });
    }
    ProgramLayout::of(view, &mut 0).fingerprints(records.finish())[0]
}

/// The parsed skeleton of a trace-pair payload: both program layouts
/// plus the bank geometry. Holds no ops — pair it with the payload bytes
/// (see [`PairLayout::bank`]) to read records.
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
        &payload[self.bank_offset..self.bank_end()]
    }

    /// The payload offset where the bank ends and the trailer begins.
    fn bank_end(&self) -> usize {
        self.bank_offset + RECORD_LEN * self.total_ops
    }

    /// The four fingerprints sealed in `payload`'s trailer, in
    /// [`PairDigest`] order: plain, TLS, serialized plain, serialized TLS.
    fn trailer(&self, payload: &[u8]) -> [u64; 4] {
        block_words(&payload[self.bank_end()..self.bank_end() + TRAILER_LEN])
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

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
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

/// The size of the slices the encoder hashes and writes in one go: small
/// enough to stay in cache between the two, large enough that a
/// buffered writer passes them straight through.
pub(crate) const WRITE_CHUNK: usize = 1 << 16;

/// A `(plain, tls)` pair's trace-pair container, written in one
/// streaming walk.
///
/// Everything before the op bank — the container header, the payload
/// header, the structure section and the padding — is a few hundred
/// bytes built up front. [`PairEncoder::write_to`] then streams each
/// epoch's records straight from the programs, folding each slice into
/// the container seal and its program's records seal as it goes, writes
/// the four fingerprints as the trailer, and returns the [`PairDigest`]
/// it sealed. No whole-container buffer exists unless the writer is one.
#[derive(Debug)]
pub struct PairEncoder<'a> {
    plain: ProgramView<'a>,
    tls: ProgramView<'a>,
    /// The skeletons of `plain` and `tls`, for their fingerprints.
    layouts: [ProgramLayout; 2],
    /// Every byte before the op bank.
    prefix: Vec<u8>,
    /// The op bank's length in bytes.
    bank_len: usize,
}

impl<'a> PairEncoder<'a> {
    /// The encoder of `plain` and `tls` under the cache key `key_hash`.
    pub fn new(key_hash: u64, plain: ProgramView<'a>, tls: ProgramView<'a>) -> Self {
        let mut total_ops = 0;
        let layouts = [&plain, &tls].map(|view| ProgramLayout::of(view, &mut total_ops));
        let mut structure = Vec::new();
        layouts.iter().for_each(|l| l.put_structure(&mut structure, false));
        let bank_offset = bank_offset_for(size_of::<PairHeader>() + structure.len());
        let bank_len = RECORD_LEN * total_ops;
        let container =
            ContainerHeader::new(KIND_TRACE_PAIR, key_hash, bank_offset + bank_len + TRAILER_LEN);
        let payload = PairHeader {
            stamp: ENDIAN_STAMP.to_le_bytes(),
            record_len: (RECORD_LEN as u16).to_le_bytes(),
            bank_offset: (bank_offset as u32).to_le_bytes(),
            total_ops: (total_ops as u64).to_le_bytes(),
        };
        let mut prefix = [container.as_bytes(), payload.as_bytes(), &structure].concat();
        prefix.resize(HEADER_LEN + bank_offset, 0);
        PairEncoder { plain, tls, layouts, prefix, bank_len }
    }

    /// The container's length in bytes.
    pub fn file_len(&self) -> usize {
        self.prefix.len() + self.bank_len + TRAILER_LEN + CHECKSUM_LEN
    }

    /// Writes the whole container to `out` in one walk and returns its
    /// digest: the seal it wrote and the four content fingerprints it
    /// sealed in the trailer.
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<PairDigest> {
        let mut seal = Seal::new();
        seal.update(&self.prefix);
        out.write_all(&self.prefix)?;
        let mut fingerprints = [[0; 2]; 2];
        for ((view, layout), fps) in
            [&self.plain, &self.tls].into_iter().zip(&self.layouts).zip(&mut fingerprints)
        {
            let mut records = Seal::new();
            for ops in epochs_of(view) {
                op_bytes(ops, |bytes| {
                    bytes.chunks(WRITE_CHUNK).try_for_each(|chunk| {
                        records.update(chunk);
                        seal.update(chunk);
                        out.write_all(chunk)
                    })
                })?;
            }
            *fps = layout.fingerprints(records.finish());
        }
        let [[plain, plain_serialized], [tls, tls_serialized]] = fingerprints;
        let mut digest = PairDigest { checksum: 0, plain, tls, plain_serialized, tls_serialized };
        let trailer = digest.trailer();
        seal.update(&trailer);
        out.write_all(&trailer)?;
        digest.checksum = seal.finish();
        out.write_all(&digest.checksum.to_le_bytes())?;
        Ok(digest)
    }

    /// Whether `file` holds exactly what [`PairEncoder::write_to`] wrote
    /// when it returned `digest`: the same length, the same bytes before
    /// the bank, every epoch's records equal to the programs' own, and
    /// `digest`'s fingerprints and seal after them. It compares bytes and
    /// hashes none, and it is a stronger check than a re-hash.
    pub fn wrote(&self, file: &[u8], digest: &PairDigest) -> bool {
        if file.len() != self.file_len() || !file.starts_with(&self.prefix) {
            return false;
        }
        let (mut bank, sealed) = file[self.prefix.len()..].split_at(self.bank_len);
        let mut same = |bytes: &[u8]| match bank.strip_prefix(bytes) {
            Some(rest) => {
                bank = rest;
                Ok(())
            }
            None => Err(()),
        };
        let (trailer, checksum) = sealed.split_at(TRAILER_LEN);
        trailer == digest.trailer()
            && checksum == digest.checksum.to_le_bytes()
            && [&self.plain, &self.tls]
                .into_iter()
                .flat_map(epochs_of)
                .all(|ops| op_bytes(ops, &mut same).is_ok())
            && bank.is_empty()
    }
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
    for _ in 0..region_count {
        regions.push(match r.u8()? {
            0 => RegionLayout::Sequential(OpRange::next(cursor, r.u32()? as usize)),
            1 => {
                let n = r.u32()? as usize;
                if n > (r.bytes.len() - r.pos) / 4 + 1 {
                    return Err(SnapshotError::Truncated);
                }
                let mut epochs = Vec::with_capacity(n);
                for _ in 0..n {
                    epochs.push(OpRange::next(cursor, r.u32()? as usize));
                }
                RegionLayout::Parallel(epochs)
            }
            tag => return Err(SnapshotError::BadRegionTag(tag)),
        });
    }
    Ok(ProgramLayout { name, regions })
}

/// Parses and validates the skeleton of a trace-pair payload: stamp,
/// record size, bank alignment, the extent of the bank and trailer,
/// padding, and the op-count identity. Does **not** validate individual
/// records — the map path does, once per map, while it seals
/// (`Seal::update_records`).
pub fn parse_pair_layout(payload: &[u8]) -> Result<PairLayout, SnapshotError> {
    let (header, _) = PairHeader::ref_from_prefix(payload).map_err(|_| SnapshotError::Truncated)?;
    let stamp = u16::from_le_bytes(header.stamp);
    // A byte-swapped stamp and an unrecognizable one are both rejected
    // as foreign-endian: neither payload can be read in place.
    if stamp != ENDIAN_STAMP {
        return Err(SnapshotError::ForeignEndian { stamp });
    }
    let record = u16::from_le_bytes(header.record_len);
    if record as usize != RECORD_LEN {
        return Err(SnapshotError::BadRecordSize(record));
    }
    let bank_offset = u32::from_le_bytes(header.bank_offset) as usize;
    let declared_ops = u64::from_le_bytes(header.total_ops);
    if bank_offset > payload.len() {
        return Err(SnapshotError::Truncated);
    }
    if !(HEADER_LEN + bank_offset).is_multiple_of(BANK_ALIGN) {
        return Err(SnapshotError::Misaligned { file_offset: HEADER_LEN + bank_offset });
    }
    let mut cursor = 0usize;
    let structure = &payload[..bank_offset];
    let mut sr = Reader { bytes: structure, pos: size_of::<PairHeader>() };
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
    let need = declared_ops
        .checked_mul(RECORD_LEN as u64)
        .and_then(|n| n.checked_add(TRAILER_LEN as u64))
        .ok_or(SnapshotError::Truncated)?;
    if (bank_len as u64) < need {
        return Err(SnapshotError::Truncated);
    }
    if (bank_len as u64) > need {
        return Err(SnapshotError::TrailingBytes(bank_len - need as usize));
    }
    Ok(PairLayout { plain, tls, bank_offset, total_ops: cursor })
}

/// Validates every record of an op bank, returning the first bad
/// record's typed error. The map path runs it only after its branch-free
/// check (`Seal::update_records`) found a bad record, to say which.
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

/// The seal and the four content fingerprints of a trace-pair
/// container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairDigest {
    /// The container seal: [`seal`] of header + payload.
    pub checksum: u64,
    /// The plain program's content fingerprint ([`fingerprint_view`]).
    pub plain: u64,
    /// The TLS program's content fingerprint.
    pub tls: u64,
    /// The fingerprint of the plain program's serialized form
    /// (`fingerprint_view(&serialize_view(..).view())`).
    pub plain_serialized: u64,
    /// The fingerprint of the TLS program's serialized form.
    pub tls_serialized: u64,
}

impl PairDigest {
    /// The fingerprints as the container's trailer bytes.
    fn trailer(&self) -> [u8; TRAILER_LEN] {
        let mut out = [0u8; TRAILER_LEN];
        let fingerprints = [self.plain, self.tls, self.plain_serialized, self.tls_serialized];
        for (slot, fp) in out.chunks_exact_mut(8).zip(fingerprints) {
            slot.copy_from_slice(&fp.to_le_bytes());
        }
        out
    }
}

/// The digest a trace-pair `file` carries: its stored seal and the four
/// fingerprints of its trailer, read, not recomputed. Trust it only once
/// the seal has verified; [`digest_pair`] is the recompute.
pub fn sealed_digest(file: &[u8], layout: &PairLayout) -> PairDigest {
    let payload = &file[HEADER_LEN..file.len() - CHECKSUM_LEN];
    let [plain, tls, plain_serialized, tls_serialized] = layout.trailer(payload);
    let seal = &file[file.len() - CHECKSUM_LEN..];
    let checksum = u64::from_le_bytes(seal.try_into().expect("8 bytes"));
    PairDigest { checksum, plain, tls, plain_serialized, tls_serialized }
}

/// Recomputes all five [`PairDigest`] values from a container `body`
/// (header + payload: the file without its trailing seal) whose payload
/// parsed as `layout`: the [`seal`] of the body, and each program's two
/// fingerprints from the seal of its records, which lie together in the
/// bank (plain's first). It ignores the trailer's contents, so it is the
/// independent check of what the encoder sealed.
///
/// # Panics
///
/// If `layout` was not parsed from this body's payload (the bank would
/// not be where, or as long as, the layout says).
pub fn digest_pair(body: &[u8], layout: &PairLayout) -> PairDigest {
    let bank = layout.bank(&body[HEADER_LEN..]);
    let (plain_records, tls_records) = bank.split_at(RECORD_LEN * layout.plain.total_ops());
    let [plain, plain_serialized] = layout.plain.fingerprints(seal(plain_records));
    let [tls, tls_serialized] = layout.tls.fingerprints(seal(tls_records));
    PairDigest { checksum: seal(body), plain, tls, plain_serialized, tls_serialized }
}

/// Casts a (validated) op bank to records in place. Fails with a typed
/// error if the bytes are misaligned for `TraceOp` — the caller's buffer
/// must be [`BANK_ALIGN`]-aligned. The records are little-endian, so the
/// cast is what they hold only on a little-endian host.
pub fn cast_bank(bank: &[u8]) -> Result<&[TraceOp], SnapshotError> {
    zerocopy::slice_from_bytes::<TraceOp>(bank).map_err(|e| match e {
        zerocopy::CastError::Misaligned { offset, .. } => {
            SnapshotError::Misaligned { file_offset: offset }
        }
        zerocopy::CastError::SizeMismatch { len, .. } => {
            SnapshotError::TrailingBytes(len % RECORD_LEN)
        }
    })
}

/// Encodes a pair as a complete trace-pair container file image: the
/// [`PairEncoder`] written into a buffer.
pub fn encode_pair_file(key_hash: u64, pair: &BenchmarkPrograms) -> Vec<u8> {
    let encoder = PairEncoder::new(key_hash, pair.plain.view(), pair.tls.view());
    let mut out = Vec::with_capacity(encoder.file_len());
    encoder.write_to(&mut out).expect("writing to a Vec cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_core::experiment::serialize_view;
    use tls_trace::{Addr, Epoch, LatchId, OpSink, Pc, ProgramBuilder, Region, TraceProgram};

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

    /// The trace-pair (kind-1) payload of `pair`: its file without the
    /// container header and seal.
    fn payload_of(pair: &BenchmarkPrograms) -> Vec<u8> {
        let file = encode_pair_file(0, pair);
        file[HEADER_LEN..file.len() - CHECKSUM_LEN].to_vec()
    }

    /// The verify-first reference chain of checks on a trace-pair file:
    /// framing, seal and key, then the layout, then every record.
    fn reference_open(file: &[u8], key: u64) -> Result<(), SnapshotError> {
        let payload = decode_container(file, KIND_TRACE_PAIR, key)?;
        let layout = parse_pair_layout(payload)?;
        validate_bank(layout.bank(payload))
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

    /// Fingerprints match an independent implementation of their
    /// definition (the module doc's), `tests/fingerprint_vectors.py`, on
    /// programs of every region shape, and the writer seals the same
    /// values. The `par` program moved by one epoch boundary changes only
    /// its own fingerprint, not its serialized one.
    #[test]
    fn fingerprints_match_reference_vectors() {
        // A load: pc `i`, 8 bytes, no dependence, address 0x1000 + 8i.
        let op = |i: u32| {
            let mut raw = [0u8; 16];
            raw[0..4].copy_from_slice(&i.to_le_bytes());
            raw[4..6].copy_from_slice(&[2, 8]);
            raw[8..].copy_from_slice(&(0x1000 + 8 * i as u64).to_le_bytes());
            TraceOp::from_raw(raw).expect("a valid load")
        };
        let epoch = |ops: std::ops::Range<u32>| Epoch::new(ops.map(op).collect());
        let par = |epochs: [std::ops::Range<u32>; 3]| {
            let parallel = Region::Parallel(epochs.map(epoch).to_vec());
            let regions =
                vec![Region::Sequential(epoch(0..1)), parallel, Region::Sequential(epoch(0..0))];
            TraceProgram::new("par", regions)
        };
        let cases = [
            (TraceProgram::new("", vec![]), 0x9766_a181_0542_e294, 0x9766_a181_0542_e294),
            (
                TraceProgram::new("seq", vec![Region::Sequential(epoch(0..3))]),
                0x5ab0_44db_184b_b2aa,
                0x5ab0_44db_184b_b2aa,
            ),
            (par([1..3, 3..3, 3..4]), 0x1dbd_abe6_5001_260b, 0xd929_9ed8_1154_1257),
            (par([1..2, 2..3, 3..4]), 0xc91e_e183_7176_884a, 0xd929_9ed8_1154_1257),
        ];
        for (program, want, want_serialized) in cases {
            let serialized = serialize_view(&program.view());
            let got = [fingerprint_view(&program.view()), fingerprint_view(&serialized.view())];
            assert_eq!(got, [want, want_serialized], "{:?}", program.name);
            let pair = BenchmarkPrograms { plain: serialized, tls: program };
            let digest = PairEncoder::new(0, pair.plain.view(), pair.tls.view())
                .write_to(&mut io::sink())
                .expect("a sink takes every write");
            let sealed = [digest.tls, digest.tls_serialized, digest.plain, digest.plain_serialized];
            assert_eq!(sealed, [want, want_serialized, want_serialized, want_serialized]);
        }
    }

    #[test]
    fn foreign_endian_stamp_is_rejected() {
        let pair = sample_pair();
        let payload = payload_of(&pair);
        let mut swapped = payload.clone();
        swapped[0..2].copy_from_slice(&ENDIAN_STAMP.swap_bytes().to_le_bytes());
        assert!(matches!(parse_pair_layout(&swapped), Err(SnapshotError::ForeignEndian { .. })));
    }

    #[test]
    fn misaligned_bank_offset_is_rejected() {
        let pair = sample_pair();
        let payload = payload_of(&pair);
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
        let mut payload = payload_of(&pair);
        payload[2..4].copy_from_slice(&8u16.to_le_bytes());
        assert!(matches!(parse_pair_layout(&payload), Err(SnapshotError::BadRecordSize(8))));
    }

    #[test]
    fn op_count_mismatch_is_rejected() {
        let pair = sample_pair();
        let mut payload = payload_of(&pair);
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
            // The seal catches every single-word change, so no flip
            // gets past the verify-first checks.
            assert!(reference_open(&bad, 7).is_err(), "flip at byte {i} was accepted");
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let pair = sample_pair();
        let file = encode_pair_file(7, &pair);
        for len in [0, 10, 23, 24, file.len() / 2, file.len() - 1] {
            assert!(reference_open(&file[..len], 7).is_err(), "truncation to {len} accepted");
        }
    }

    #[test]
    fn wrong_key_version_and_kind_are_rejected() {
        let pair = sample_pair();
        let file = encode_pair_file(7, &pair);
        assert!(matches!(
            reference_open(&file, 8),
            Err(SnapshotError::KeyMismatch { found: 7, expected: 8 })
        ));
        // Version is checked before the seal, so a retired (1 to 3) or
        // future-format file reads as a version mismatch (then gets
        // re-recorded), not as corruption.
        for version in [1, 2, 3, VERSION + 1] {
            let mut wrong_version = file.clone();
            wrong_version[7] = version;
            assert_eq!(
                reference_open(&wrong_version, 7).err(),
                Some(SnapshotError::VersionMismatch { found: version, expected: VERSION })
            );
        }
        let report = encode_container(KIND_SIM_REPORT, 7, b"{}");
        assert!(matches!(
            reference_open(&report, 7),
            Err(SnapshotError::KindMismatch { found: KIND_SIM_REPORT, expected: KIND_TRACE_PAIR })
        ));
    }

    /// Report containers are version 4 and sealed with [`Seal`]: the
    /// exact bytes of one small report (the seal is
    /// `tests/fingerprint_vectors.py`'s). A version-2 report, as older
    /// builds wrote it (sealed with FNV-1a), and a version-3 one (sealed
    /// as today) read as version mismatches.
    #[test]
    fn report_container_bytes_are_pinned() {
        let payload = br#"{"total_cycles":42}"#;
        let key = 0x0123_4567_89AB_CDEF;
        let mut want = b"TLSNAP\x02\x04".to_vec();
        want.extend_from_slice(&[0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01]);
        want.extend_from_slice(&[19, 0, 0, 0, 0, 0, 0, 0]);
        want.extend_from_slice(payload);
        want.extend_from_slice(&0x6bae_4f7c_aa8e_fba2u64.to_le_bytes());
        let container = encode_container(KIND_SIM_REPORT, key, payload);
        assert_eq!(container, want);
        assert_eq!(decode_container(&container, KIND_SIM_REPORT, key), Ok(&payload[..]));
        for (version, sealed_with) in [(2, fnv1a as fn(&[u8]) -> u64), (3, seal)] {
            let mut retired = container.clone();
            retired[7] = version;
            let body_end = retired.len() - CHECKSUM_LEN;
            let sum = sealed_with(&retired[..body_end]);
            retired[body_end..].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(
                decode_container(&retired, KIND_SIM_REPORT, key),
                Err(SnapshotError::VersionMismatch { found: version, expected: VERSION })
            );
        }
    }

    /// The seal matches an independent implementation of its definition
    /// (the module doc's) on a few vectors, and streaming it in pieces of
    /// any size gives the one-shot value.
    #[test]
    fn seal_matches_reference_vectors_and_streams() {
        let counting: Vec<u8> = (0..100u8).collect();
        assert_eq!(seal(b""), 0x9090_306c_6e91_ed59);
        assert_eq!(seal(b"a"), 0x2648_9728_c2a1_efd1);
        assert_eq!(seal(b"TLSNAP"), 0x9ceb_35cd_35da_5a7d);
        assert_eq!(seal(&counting), 0x70f1_8a67_5866_9f20);
        for step in 1..=70 {
            let mut streamed = Seal::new();
            counting.chunks(step).for_each(|c| streamed.update(c));
            assert_eq!(streamed.finish(), seal(&counting), "pieces of {step}");
        }
        let mut records = Seal::new();
        records.update(&counting[..32]);
        assert!(!records.update_records(&counting[32..96]), "counting bytes are not records");
        records.update(&counting[96..]);
        assert_eq!(records.finish(), seal(&counting));
    }

    /// A change confined to one 8-byte word always changes the seal, as
    /// does a change of length by zero bytes appended.
    #[test]
    fn every_word_change_changes_the_seal() {
        let body: Vec<u8> = (0..96u32).map(|i| (i * 37 % 251) as u8).collect();
        let want = seal(&body);
        for i in 0..body.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut bad = body.clone();
                bad[i] ^= mask;
                assert_ne!(seal(&bad), want, "byte {i} ^ {mask:#x}");
            }
        }
        for word in 0..body.len() / 8 {
            let mut bad = body.clone();
            bad[8 * word..8 * word + 8].iter_mut().for_each(|b| *b = !*b);
            assert_ne!(seal(&bad), want, "word {word} inverted");
        }
        for extra in 1..=40 {
            let mut longer = body.clone();
            longer.resize(body.len() + extra, 0);
            assert_ne!(seal(&longer), want, "{extra} zero bytes appended");
        }
    }

    /// The trailer holds the four fingerprints, and the file's digest as
    /// read equals the recompute.
    #[test]
    fn trailer_is_sealed_and_equals_the_recompute() {
        let pair = sample_pair();
        let file = encode_pair_file(5, &pair);
        let payload = decode_container(&file, KIND_TRACE_PAIR, 5).expect("framing");
        let layout = parse_pair_layout(payload).expect("layout");
        let fps = [&pair.plain, &pair.tls].map(|p| fingerprint_view(&p.view()));
        assert_eq!(&layout.trailer(payload)[..2], &fps);
        let body = &file[..file.len() - CHECKSUM_LEN];
        assert_eq!(sealed_digest(&file, &layout), digest_pair(body, &layout));
        assert_eq!(payload.len(), layout.bank_offset + 16 * layout.total_ops + TRAILER_LEN);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a-64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
