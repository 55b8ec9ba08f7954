//! Fixed-cell pages.
//!
//! Every page is [`PAGE_SIZE`] bytes of simulated memory holding a sorted
//! array of fixed-size cells (`8-byte key ‖ value`). TPC-C rows have fixed
//! widths, so fixed cells keep the engine simple while preserving what
//! matters for the paper: **inserts shift cells and update the shared page
//! header**, making hot pages (e.g. the ORDER LINE leaf that consecutive
//! order lines append to) genuine sources of cross-thread dependences.
//!
//! Header layout (24 bytes):
//!
//! | offset | field |
//! |---|---|
//! | 0 | kind (u16) |
//! | 2 | ncells (u16) |
//! | 4 | cell size (u16) |
//! | 8 | next page address (u64; leaf chain, or leftmost child) |
//! | 16 | prev page address (u64) |

use crate::Env;
use std::fmt;
use tls_trace::{Addr, Pc};

/// Bytes per page.
pub const PAGE_SIZE: u64 = 4096;
/// Bytes of page header before the cell array.
pub const HEADER_SIZE: u64 = 24;

/// What a page stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// Key/value cells of a B+-tree leaf.
    Leaf,
    /// Key/child-pointer cells of a B+-tree interior node.
    Internal,
}

impl PageKind {
    fn to_u16(self) -> u16 {
        match self {
            PageKind::Leaf => 1,
            PageKind::Internal => 2,
        }
    }

    fn from_u16(v: u16) -> Result<PageKind, u16> {
        match v {
            1 => Ok(PageKind::Leaf),
            2 => Ok(PageKind::Internal),
            other => Err(other),
        }
    }
}

// ---------------------------------------------------------------------
// The on-disk page envelope.
//
// When the pager writes a page (or any registered region) to the
// simulated disk it wraps the payload in a 16-byte envelope:
//
// | offset | field |
// |---|---|
// | 0 | page LSN (u64 LE) — last WAL record applied to this image |
// | 8 | FNV-1a-64 checksum of `LSN bytes ‖ payload` |
// | 16 | payload (`PAGE_SIZE` bytes for pages) |
//
// The checksum covers the LSN so a write torn *inside the header* is
// caught too: a tear is undetectable only if it reproduces a fully
// consistent `(lsn, payload, checksum)` triple, i.e. the all-old or
// all-new envelope. The in-memory page layout above is unchanged — the
// envelope exists only on the disk side of a flush.

/// Bytes of envelope header preceding the payload on disk.
pub const ENVELOPE_HEADER: usize = 16;

/// FNV-1a-64 — the same checksum the harness snapshot store uses, kept
/// inline so `tls-minidb` needs no extra dependency.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Wraps `payload` in a checksummed envelope stamped with `lsn`.
pub fn envelope_encode(lsn: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_HEADER + payload.len());
    out.extend_from_slice(&lsn.to_le_bytes());
    let mut sum = lsn.to_le_bytes().to_vec();
    sum.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(&sum).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Why an on-disk envelope failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Shorter than the 16-byte header.
    TooShort {
        /// Bytes actually present.
        len: usize,
    },
    /// The stored checksum does not match the stored LSN + payload — a
    /// torn write, a bit flip, or any other corruption.
    Checksum {
        /// Checksum found in the header.
        stored: u64,
        /// Checksum recomputed over the stored LSN and payload.
        computed: u64,
    },
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::TooShort { len } => {
                write!(f, "page envelope too short: {len} bytes")
            }
            EnvelopeError::Checksum { stored, computed } => {
                write!(
                    f,
                    "page checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )
            }
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// Decodes an envelope, returning `(page LSN, payload)` only if the
/// checksum verifies. Corrupt envelopes are **never** silently served —
/// every caller must handle the error (repair from the WAL or
/// quarantine).
pub fn envelope_decode(bytes: &[u8]) -> Result<(u64, &[u8]), EnvelopeError> {
    if bytes.len() < ENVELOPE_HEADER {
        return Err(EnvelopeError::TooShort { len: bytes.len() });
    }
    let lsn = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
    let stored = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let payload = &bytes[ENVELOPE_HEADER..];
    let mut sum = bytes[..8].to_vec();
    sum.extend_from_slice(payload);
    let computed = fnv1a64(&sum);
    if stored != computed {
        return Err(EnvelopeError::Checksum { stored, computed });
    }
    Ok((lsn, payload))
}

/// A structurally corrupt page: its header does not decode. Surfaced as
/// a typed error so integrity checks can report corruption instead of
/// crashing mid-scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageError {
    /// Base address of the page whose header was invalid.
    pub base: Addr,
    /// The raw kind field found there.
    pub raw_kind: u16,
}

impl fmt::Display for PageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page {:?}: corrupt page kind {}", self.base, self.raw_kind)
    }
}

impl std::error::Error for PageError {}

// Recorded-access sites within a page's module.
const SITE_HDR_R: u16 = 0;
const SITE_HDR_W: u16 = 1;
const SITE_KEY_PROBE: u16 = 2;
const SITE_CELL_R: u16 = 3;
const SITE_CELL_W: u16 = 4;
const SITE_SHIFT: u16 = 5;
const SITE_LINK: u16 = 6;

/// A handle to one page. Cheap to copy; all state lives in simulated
/// memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Page {
    /// Base address of the page (also its identifier).
    pub base: Addr,
    /// Profiling module id of the owning tree.
    pub module: u16,
}

impl Page {
    /// Formats a fresh page in place.
    pub fn format(env: &mut Env, base: Addr, kind: PageKind, cell_size: u16, module: u16) -> Page {
        let p = Page { base, module };
        let pc = Pc::new(module, SITE_HDR_W);
        env.store_u16(pc, base, kind.to_u16());
        env.store_u16(pc, base.offset(2), 0);
        env.store_u16(pc, base.offset(4), cell_size);
        env.store_u64(pc, base.offset(8), 0);
        env.store_u64(pc, base.offset(16), 0);
        p
    }

    /// Opens an existing page.
    pub fn open(base: Addr, module: u16) -> Page {
        Page { base, module }
    }

    fn pc(&self, site: u16) -> Pc {
        Pc::new(self.module, site)
    }

    /// The page kind (recorded header read), or a [`PageError`] if the
    /// header does not decode to a known kind.
    pub fn kind(&self, env: &mut Env) -> Result<PageKind, PageError> {
        let raw = env.load_u16(self.pc(SITE_HDR_R), self.base);
        PageKind::from_u16(raw).map_err(|raw_kind| PageError { base: self.base, raw_kind })
    }

    /// Number of cells (recorded header read).
    pub fn ncells(&self, env: &mut Env) -> u16 {
        env.load_u16(self.pc(SITE_HDR_R), self.base.offset(2))
    }

    fn set_ncells(&self, env: &mut Env, n: u16) {
        env.store_u16(self.pc(SITE_HDR_W), self.base.offset(2), n);
    }

    /// Bytes per cell (key + value), from the header.
    pub fn cell_size(&self, env: &mut Env) -> u16 {
        env.load_u16(self.pc(SITE_HDR_R), self.base.offset(4))
    }

    /// Next-page link (leaf chain, or the leftmost child of an interior
    /// node).
    pub fn next(&self, env: &mut Env) -> Addr {
        Addr(env.load_u64(self.pc(SITE_LINK), self.base.offset(8)))
    }

    /// Sets the next-page link.
    pub fn set_next(&self, env: &mut Env, next: Addr) {
        env.store_u64(self.pc(SITE_LINK), self.base.offset(8), next.0);
    }

    /// Previous-page link of the leaf chain.
    pub fn prev(&self, env: &mut Env) -> Addr {
        Addr(env.load_u64(self.pc(SITE_LINK), self.base.offset(16)))
    }

    /// Sets the previous-page link.
    pub fn set_prev(&self, env: &mut Env, prev: Addr) {
        env.store_u64(self.pc(SITE_LINK), self.base.offset(16), prev.0);
    }

    /// Maximum cells a page of this cell size holds.
    pub fn capacity(cell_size: u16) -> u16 {
        ((PAGE_SIZE - HEADER_SIZE) / cell_size as u64) as u16
    }

    /// Address of cell `i`.
    pub fn cell_addr(&self, env: &mut Env, i: u16) -> Addr {
        let cs = self.cell_size(env) as u64;
        self.base.offset(HEADER_SIZE + i as u64 * cs)
    }

    /// Address of cell `i`'s value (just past the key).
    pub fn value_addr(&self, env: &mut Env, i: u16) -> Addr {
        self.cell_addr(env, i).offset(8)
    }

    /// Key of cell `i` (recorded load).
    pub fn key_at(&self, env: &mut Env, i: u16) -> u64 {
        let a = self.cell_addr(env, i);
        env.load_u64(self.pc(SITE_CELL_R), a)
    }

    /// Binary search for `key` among the cells, emitting the probe loads
    /// and compare/branch ops of the search loop. `Ok(i)` = exact match,
    /// `Err(i)` = insertion point.
    pub fn find(&self, env: &mut Env, key: u64) -> Result<u16, u16> {
        let n = self.ncells(env);
        let (mut lo, mut hi) = (0u16, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let a = self.cell_addr(env, mid);
            let k = env.load_u64(self.pc(SITE_KEY_PROBE), a);
            env.cmp_branch(self.pc(SITE_KEY_PROBE), k < key);
            if k == key {
                return Ok(mid);
            } else if k < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Err(lo)
    }

    /// Inserts a cell at position `i`, shifting later cells up (a recorded
    /// memmove) and bumping the header count.
    ///
    /// # Panics
    ///
    /// Panics if the page is full or `value` does not match the cell size.
    pub fn insert_at(&self, env: &mut Env, i: u16, key: u64, value: &[u8]) {
        let cs = self.cell_size(env);
        assert_eq!(value.len() as u16, cs - 8, "value width must match the cell size");
        let n = self.ncells(env);
        assert!(n < Page::capacity(cs), "page overflow");
        assert!(i <= n);
        // Shift cells [i, n) up by one, highest first.
        let mut j = n;
        while j > i {
            let src = self.cell_addr(env, j - 1);
            let dst = self.cell_addr(env, j);
            env.copy(self.pc(SITE_SHIFT), dst, src, cs as u64);
            j -= 1;
        }
        let cell = self.cell_addr(env, i);
        env.store_u64(self.pc(SITE_CELL_W), cell, key);
        env.write_from(self.pc(SITE_CELL_W), cell.offset(8), value);
        self.set_ncells(env, n + 1);
    }

    /// Removes cell `i`, shifting later cells down.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn remove_at(&self, env: &mut Env, i: u16) {
        let cs = self.cell_size(env);
        let n = self.ncells(env);
        assert!(i < n, "remove_at out of bounds");
        for j in i..n - 1 {
            let src = self.cell_addr(env, j + 1);
            let dst = self.cell_addr(env, j);
            env.copy(self.pc(SITE_SHIFT), dst, src, cs as u64);
        }
        self.set_ncells(env, n - 1);
    }

    /// Reads cell `i`'s value into `buf`.
    pub fn read_value(&self, env: &mut Env, i: u16, buf: &mut [u8]) {
        let a = self.value_addr(env, i);
        env.read_into(self.pc(SITE_CELL_R), a, buf);
    }

    /// Moves the upper half of this full page into `right` (which must be
    /// freshly formatted with the same cell size) and returns the first
    /// key of `right`.
    pub fn split_into(&self, env: &mut Env, right: Page) -> u64 {
        let cs = self.cell_size(env);
        let n = self.ncells(env);
        let mid = n / 2;
        for j in mid..n {
            let src = self.cell_addr(env, j);
            let dst = right.cell_addr(env, j - mid);
            env.copy(self.pc(SITE_SHIFT), dst, src, cs as u64);
        }
        right.set_ncells(env, n - mid);
        self.set_ncells(env, mid);
        right.key_at(env, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(env: &mut Env, cell: u16) -> Page {
        let base = env.alloc(PAGE_SIZE, PAGE_SIZE);
        Page::format(env, base, PageKind::Leaf, cell, 7)
    }

    #[test]
    fn format_and_header_round_trip() {
        let mut env = Env::new();
        let p = fresh(&mut env, 16);
        assert_eq!(p.kind(&mut env), Ok(PageKind::Leaf));
        assert_eq!(p.ncells(&mut env), 0);
        assert_eq!(p.cell_size(&mut env), 16);
        p.set_next(&mut env, Addr(0xAAA0));
        assert_eq!(p.next(&mut env), Addr(0xAAA0));
    }

    #[test]
    fn corrupt_kind_is_a_typed_error() {
        let mut env = Env::new();
        let p = fresh(&mut env, 16);
        // Clobber the kind field with a value no formatter writes.
        env.store_u16(Pc::new(7, 1), p.base, 0xBEEF);
        let e = p.kind(&mut env).expect_err("corrupt header must not decode");
        assert_eq!(e, PageError { base: p.base, raw_kind: 0xBEEF });
        assert!(format!("{e}").contains("corrupt page kind 48879"));
    }

    #[test]
    fn sorted_insert_and_find() {
        let mut env = Env::new();
        let p = fresh(&mut env, 16);
        for key in [50u64, 10, 30, 20, 40] {
            let at = p.find(&mut env, key).unwrap_err();
            p.insert_at(&mut env, at, key, &key.to_le_bytes());
        }
        assert_eq!(p.ncells(&mut env), 5);
        let keys: Vec<u64> = (0..5).map(|i| p.key_at(&mut env, i)).collect();
        assert_eq!(keys, vec![10, 20, 30, 40, 50]);
        assert_eq!(p.find(&mut env, 30), Ok(2));
        assert_eq!(p.find(&mut env, 35), Err(3));
        assert_eq!(p.find(&mut env, 5), Err(0));
        assert_eq!(p.find(&mut env, 99), Err(5));
    }

    #[test]
    fn values_are_preserved_across_shifts() {
        let mut env = Env::new();
        let p = fresh(&mut env, 16);
        for key in [3u64, 1, 2] {
            let at = p.find(&mut env, key).unwrap_err();
            p.insert_at(&mut env, at, key, &(key * 100).to_le_bytes());
        }
        for (i, key) in [1u64, 2, 3].iter().enumerate() {
            let mut buf = [0u8; 8];
            p.read_value(&mut env, i as u16, &mut buf);
            assert_eq!(u64::from_le_bytes(buf), key * 100);
        }
    }

    #[test]
    fn remove_shifts_down() {
        let mut env = Env::new();
        let p = fresh(&mut env, 16);
        for key in 1u64..=4 {
            p.insert_at(&mut env, (key - 1) as u16, key, &key.to_le_bytes());
        }
        p.remove_at(&mut env, 1); // drop key 2
        assert_eq!(p.ncells(&mut env), 3);
        let keys: Vec<u64> = (0..3).map(|i| p.key_at(&mut env, i)).collect();
        assert_eq!(keys, vec![1, 3, 4]);
    }

    #[test]
    fn split_moves_upper_half() {
        let mut env = Env::new();
        let left = fresh(&mut env, 16);
        for key in 1u64..=10 {
            left.insert_at(&mut env, (key - 1) as u16, key, &key.to_le_bytes());
        }
        let rbase = env.alloc(PAGE_SIZE, PAGE_SIZE);
        let right = Page::format(&mut env, rbase, PageKind::Leaf, 16, 7);
        let sep = left.split_into(&mut env, right);
        assert_eq!(sep, 6);
        assert_eq!(left.ncells(&mut env), 5);
        assert_eq!(right.ncells(&mut env), 5);
        assert_eq!(right.key_at(&mut env, 0), 6);
        assert_eq!(left.key_at(&mut env, 4), 5);
    }

    #[test]
    fn capacity_accounts_for_header() {
        assert_eq!(Page::capacity(16), (4096 - 24) / 16);
        assert!(Page::capacity(96) >= 42);
    }

    #[test]
    #[should_panic(expected = "page overflow")]
    fn overfull_insert_panics() {
        let mut env = Env::new();
        let p = fresh(&mut env, 512);
        let cap = Page::capacity(512);
        let v = vec![0u8; 504];
        for k in 0..=cap as u64 {
            p.insert_at(&mut env, k as u16, k, &v);
        }
    }

    #[test]
    fn envelope_round_trips() {
        let payload = vec![7u8; PAGE_SIZE as usize];
        let env = envelope_encode(42, &payload);
        assert_eq!(env.len(), ENVELOPE_HEADER + PAGE_SIZE as usize);
        let (lsn, body) = envelope_decode(&env).expect("clean envelope decodes");
        assert_eq!(lsn, 42);
        assert_eq!(body, &payload[..]);
    }

    #[test]
    fn envelope_rejects_every_single_bit_flip_in_a_sample() {
        let payload: Vec<u8> = (0..64u32).map(|i| i as u8).collect();
        let env = envelope_encode(9, &payload);
        // Flip one bit per byte across the whole envelope.
        for byte in 0..env.len() {
            let mut bad = env.clone();
            bad[byte] ^= 1 << (byte % 8);
            assert!(
                matches!(envelope_decode(&bad), Err(EnvelopeError::Checksum { .. })),
                "flip in byte {byte} must be caught"
            );
        }
    }

    #[test]
    fn envelope_too_short_is_typed() {
        assert_eq!(envelope_decode(&[0u8; 3]), Err(EnvelopeError::TooShort { len: 3 }));
        let e = envelope_decode(&[]).unwrap_err();
        assert!(format!("{e}").contains("too short"));
    }

    #[test]
    fn recorded_ops_reference_page_memory() {
        let mut env = Env::new();
        env.rec.start("t", false);
        let p = fresh(&mut env, 16);
        p.insert_at(&mut env, 0, 42, &[0u8; 8]);
        let _ = p.find(&mut env, 42);
        let prog = env.rec.finish();
        assert!(prog.total_ops() > 5);
        for op in prog.iter_ops() {
            if let Some(a) = op.mem_addr() {
                assert!(a.0 >= p.base.0 && a.0 < p.base.0 + PAGE_SIZE, "op outside page: {op:?}");
            }
        }
    }
}
