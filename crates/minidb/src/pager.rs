//! The buffer pool: a real pager over the simulated address space.
//!
//! The paper's TPC-C threads spend their time inside BerkeleyDB's buffer
//! pool, log and B-trees — shared structures whose incidental dependences
//! are exactly what sub-threads tolerate. This module adds the missing
//! member of that trio: a fixed set of frames with pin/unpin discipline,
//! clock eviction, checksummed on-"disk" pages and ARIES-style REDO
//! recovery from the [`DurableWal`].
//!
//! # Design: a residency layer, not a relocation layer
//!
//! Pages keep their simulated addresses forever — the pager tracks
//! *residency*, not placement. A pin of a resident page is a recorded
//! probe of the shared frame directory (the buffer-pool hash lookup every
//! engine pays); a miss additionally evicts a victim and "reads the page
//! in", both as recorded accesses over real simulated memory. With no
//! pager attached ([`Env::pin_page`](crate::Env::pin_page) is a no-op)
//! the engine emits byte-identical traces to every earlier revision, so
//! checked-in baselines stay valid; with a pager attached the frame
//! directory becomes one more genuine source of cross-thread dependences,
//! like the paper's buffer pool.
//!
//! # Durability protocol
//!
//! * Work is bracketed into **mini-transactions** (one per TPC-C
//!   transaction). Pages pinned inside an mtr are never evictable.
//! * At [`mtr_end`](Pager::mtr_end) each touched region is diffed against
//!   its last logged image: the first change to a region logs a full page
//!   image, later changes log byte-range deltas, then a commit record
//!   seals the mtr. This is the page-LSN discipline: every region knows
//!   the LSN of its last logged change.
//! * A flush writes `envelope(page_lsn, content)` to the [`SimDisk`];
//!   **write-ahead is enforced by a debug assert** — flushed bytes must
//!   equal the last logged image, so no unlogged modification can ever
//!   reach disk.
//! * [`recover`] replays the log onto a crashed disk image: each region
//!   starts from its disk copy if the envelope checksum validates
//!   (torn writes and bit flips are *always* caught, never silently
//!   served), else from its first full-page image in the log; regions
//!   recoverable neither way are quarantined with a reason.

use crate::disk::SimDisk;
use crate::page::{envelope_decode, envelope_encode, PAGE_SIZE};
use crate::wal::{DurableWal, WalPayload, WalRecord};
use crate::{Env, LatchName, SimMemory};
use std::collections::HashMap;
use tls_core::DiskFaultPlan;
use tls_obs::{Event, EventKind};
use tls_trace::{Addr, OpSink, Pc, TraceOp};

/// Profiling module id of the pager's recorded accesses.
pub const PAGER_MODULE: u16 = 0x09;

const SITE_HIT: u16 = 0;
const SITE_MISS: u16 = 1;
const SITE_EVICT: u16 = 2;
const SITE_READIN: u16 = 3;

/// Stride of the recorded transfer loops: one 8-byte access per cache
/// line of the 4 KiB page (64 ops per page move).
const XFER_STRIDE: u64 = 64;

/// Monotonic counters surfaced into `BENCH_suite.json` and the kernel
/// bench printout.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct PagerCounters {
    /// Pins satisfied by a resident frame.
    pub hits: u64,
    /// Pins that had to read the page in.
    pub misses: u64,
    /// Frames reclaimed by the clock hand.
    pub evictions: u64,
    /// Dirty pages written to the simulated disk.
    pub flushes: u64,
    /// Disk envelopes rejected by the checksum on read-in.
    pub checksum_failures: u64,
    /// Disk envelopes rejected as stale (lost write: valid checksum,
    /// old LSN).
    pub stale_reads: u64,
    /// Live read-repairs: a rejected disk copy replaced by replaying
    /// logged state.
    pub recovery_replays: u64,
    /// Mini-transactions committed.
    pub mtrs: u64,
    /// High-water mark of pages pinned by a single mini-transaction —
    /// the hard floor for pool sizing (pinned pages are unevictable).
    pub max_pinned: u64,
}

#[derive(Debug)]
struct RegionState {
    len: usize,
    /// The region's content as of its last logged record — the only
    /// bytes a flush is allowed to write (write-ahead).
    last_logged: Vec<u8>,
    /// LSN of the region's most recent log record (0 = never logged).
    page_lsn: u64,
    /// `page_lsn` at the time of the last disk write; `page_lsn >
    /// flushed_lsn` means dirty.
    flushed_lsn: u64,
    /// Whether a full-page image exists in the log, making the region
    /// recoverable even from a corrupt disk copy.
    has_fpi: bool,
    resident: bool,
    /// Pinned by the current mini-transaction (unevictable).
    pinned: bool,
    /// Clock reference bit.
    referenced: bool,
    /// Meta blocks: always resident, never evicted, diffed every mtr.
    permanent: bool,
}

/// The buffer pool. Owned by [`Env`] while attached; all bookkeeping is
/// host-side except the recorded frame-directory and transfer accesses.
#[derive(Debug)]
pub struct Pager {
    frames: usize,
    resident_pages: usize,
    regions: HashMap<u64, RegionState>,
    /// Page regions in registration order — the clock's circular order.
    pages: Vec<u64>,
    hand: usize,
    disk: SimDisk,
    wal: DurableWal,
    in_mtr: bool,
    mtr_pinned: Vec<u64>,
    mtr_seq: u64,
    /// Simulated frame directory: `frames` 8-byte cells probed by every
    /// pin — the shared structure whose accesses collide across
    /// speculative threads.
    dir: Addr,
    counters: PagerCounters,
    events: Option<Vec<Event>>,
    event_seq: u64,
}

impl Pager {
    /// Creates a pool of `frames` frames whose disk applies `plan`.
    /// `observe` enables the host-side event buffer (guaranteed not to
    /// change recorded traces — asserted by tests).
    pub fn new(env: &mut Env, frames: usize, plan: DiskFaultPlan, observe: bool) -> Self {
        assert!(frames >= 2, "a pool needs at least two frames");
        let dir = env.alloc(frames as u64 * 8, 64);
        let mut disk = SimDisk::new();
        disk.set_plan(plan);
        Pager {
            frames,
            resident_pages: 0,
            regions: HashMap::new(),
            pages: Vec::new(),
            hand: 0,
            disk,
            wal: DurableWal::new(),
            in_mtr: false,
            mtr_pinned: Vec::new(),
            mtr_seq: 0,
            dir,
            counters: PagerCounters::default(),
            events: observe.then(Vec::new),
            event_seq: 0,
        }
    }

    fn emit_event(&mut self, kind: EventKind, a: u64, b: u64) {
        self.event_seq += 1;
        if let Some(buf) = self.events.as_mut() {
            buf.push(Event {
                cycle: self.event_seq,
                a,
                b,
                epoch: u32::MAX,
                kind,
                cpu: Event::NO_CPU,
                sub: 0,
            });
        }
    }

    /// Registers an existing page (called for every page in the
    /// [`Env`] registry at attach). Starts non-resident: the first pin
    /// reads it in, so a cold pool behaves like a cold pool.
    pub fn register_page(&mut self, mem: &SimMemory, base: Addr) {
        let content = mem.bytes(base, PAGE_SIZE as usize);
        self.regions.insert(
            base.0,
            RegionState {
                len: PAGE_SIZE as usize,
                last_logged: content,
                page_lsn: 0,
                flushed_lsn: 0,
                has_fpi: false,
                resident: false,
                pinned: false,
                referenced: false,
                permanent: false,
            },
        );
        self.pages.push(base.0);
    }

    /// Registers a permanent region (tree meta block): always resident,
    /// never evicted, diffed at every mtr commit.
    pub fn register_permanent(&mut self, mem: &SimMemory, base: Addr, len: u64) {
        let content = mem.bytes(base, len as usize);
        self.regions.insert(
            base.0,
            RegionState {
                len: len as usize,
                last_logged: content,
                page_lsn: 0,
                flushed_lsn: 0,
                has_fpi: false,
                resident: true,
                pinned: false,
                referenced: false,
                permanent: true,
            },
        );
    }

    /// Registers a page allocated *during* the paged run (a B-tree
    /// split): resident, pinned for the current mtr, no disk copy yet —
    /// its first commit logs a full image.
    pub fn register_new_page(&mut self, env: &mut Env, base: Addr) {
        if self.resident_pages >= self.frames {
            self.evict_one(env);
        }
        self.regions.insert(
            base.0,
            RegionState {
                len: PAGE_SIZE as usize,
                last_logged: vec![0; PAGE_SIZE as usize],
                page_lsn: 0,
                flushed_lsn: 0,
                has_fpi: false,
                resident: true,
                pinned: self.in_mtr,
                referenced: true,
                permanent: false,
            },
        );
        self.pages.push(base.0);
        self.resident_pages += 1;
        if self.in_mtr {
            self.mtr_pinned.push(base.0);
        }
    }

    /// Writes every region's envelope to disk fault-free: the initial
    /// database files, durable before the measured run starts. Must be
    /// called once, after registration, before the first mtr.
    pub fn bootstrap_checkpoint(&mut self) {
        assert_eq!(self.wal.last_lsn(), 0, "bootstrap after logging started");
        let mut ids: Vec<u64> = self.regions.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let st = &self.regions[&id];
            self.disk.bootstrap(id, envelope_encode(st.page_lsn, &st.last_logged));
        }
    }

    /// Opens a mini-transaction. Every paged access must happen inside
    /// one.
    pub fn mtr_begin(&mut self) {
        assert!(!self.in_mtr, "nested mini-transactions");
        self.in_mtr = true;
    }

    /// Pins a page for the current mtr, recording the frame-directory
    /// probe (hit) or the full miss path (latch, eviction, read-in).
    ///
    /// # Panics
    ///
    /// Panics outside an mtr, on an unregistered page, or when every
    /// frame is pinned (pool smaller than one mtr's working set).
    pub fn pin(&mut self, env: &mut Env, base: Addr) {
        assert!(self.in_mtr, "paged access outside a mini-transaction");
        let slot = self.dir_slot(base.0);
        let st = self
            .regions
            .get(&base.0)
            .unwrap_or_else(|| panic!("pin of unregistered page {:#x}", base.0));
        if st.permanent {
            return; // metas are not frame-managed
        }
        if st.resident {
            self.counters.hits += 1;
            let pc = Pc::new(PAGER_MODULE, SITE_HIT);
            env.load_u64(pc, self.dir.offset(slot * 8));
            env.alu(pc, 2);
        } else {
            self.counters.misses += 1;
            let pc = Pc::new(PAGER_MODULE, SITE_MISS);
            env.latch_acquire(pc, LatchName::Pager.id());
            env.load_u64(pc, self.dir.offset(slot * 8));
            env.alu(pc, 4);
            if self.resident_pages >= self.frames {
                self.evict_one(env);
            }
            self.read_in(env, base.0);
            env.store_u64(pc, self.dir.offset(slot * 8), base.0);
            env.latch_release(pc, LatchName::Pager.id());
            let st = self.regions.get_mut(&base.0).expect("registered");
            st.resident = true;
            self.resident_pages += 1;
        }
        let st = self.regions.get_mut(&base.0).expect("registered");
        st.referenced = true;
        if !st.pinned {
            st.pinned = true;
            self.mtr_pinned.push(base.0);
        }
    }

    fn dir_slot(&self, region: u64) -> u64 {
        (region / PAGE_SIZE) % self.frames as u64
    }

    /// Clock sweep: second chance on the reference bit, skipping pinned
    /// and non-resident pages. Flushes the victim first if dirty.
    fn evict_one(&mut self, env: &mut Env) {
        let n = self.pages.len();
        let mut spared = 0;
        for _ in 0..2 * n + 1 {
            let id = self.pages[self.hand % n];
            self.hand = (self.hand + 1) % n;
            let st = self.regions.get_mut(&id).expect("page state");
            if !st.resident || st.pinned {
                continue;
            }
            if st.referenced {
                st.referenced = false;
                spared += 1;
                continue;
            }
            // Victim found.
            let dirty = st.page_lsn > st.flushed_lsn;
            if dirty {
                self.flush_region(env, id);
            }
            let st = self.regions.get_mut(&id).expect("page state");
            st.resident = false;
            self.resident_pages -= 1;
            self.counters.evictions += 1;
            let pc = Pc::new(PAGER_MODULE, SITE_EVICT);
            for i in 0..(PAGE_SIZE / XFER_STRIDE) {
                env.load_u64(pc, Addr(id).offset(i * XFER_STRIDE));
            }
            let slot = self.dir_slot(id);
            env.store_u64(pc, self.dir.offset(slot * 8), 0);
            self.emit_event(EventKind::FrameEvict, id, dirty as u64);
            return;
        }
        panic!(
            "no evictable frame: {} frames, {} resident, {spared} spared — \
             pool smaller than one mini-transaction's working set",
            self.frames, self.resident_pages
        );
    }

    /// Writes a region's last-logged image to disk. The write-ahead
    /// invariant in one debug assert: an unpinned page's memory content
    /// equals its last logged image, so flushing `last_logged` flushes
    /// only logged bytes.
    fn flush_region(&mut self, env: &mut Env, region: u64) {
        let st = self.regions.get_mut(&region).expect("page state");
        debug_assert_eq!(
            env.mem.bytes(Addr(region), st.len),
            st.last_logged,
            "write-ahead violated: page {region:#x} has unlogged modifications at flush"
        );
        let envelope = envelope_encode(st.page_lsn, &st.last_logged);
        let lsn = st.page_lsn;
        st.flushed_lsn = lsn;
        self.disk.write(region, envelope, self.wal.last_lsn());
        self.counters.flushes += 1;
        self.emit_event(EventKind::FrameFlush, region, lsn);
    }

    /// Reads a page in from disk, validating the envelope. A checksum
    /// failure (torn write, bit flip) or stale LSN (lost write) is never
    /// silently served: the page is repaired from its logged image and
    /// counted as a live recovery replay.
    fn read_in(&mut self, env: &mut Env, region: u64) {
        let st = self.regions.get(&region).expect("page state");
        let expect_lsn = st.page_lsn;
        let len = st.len;
        let content = match self.disk.image_of(region) {
            Some(envelope) => match envelope_decode(&envelope) {
                Ok((lsn, payload)) if lsn == expect_lsn && payload.len() == len => payload.to_vec(),
                Ok(_) => {
                    self.counters.stale_reads += 1;
                    self.counters.recovery_replays += 1;
                    self.emit_event(EventKind::RecoveryReplay, region, expect_lsn);
                    self.regions[&region].last_logged.clone()
                }
                Err(_) => {
                    self.counters.checksum_failures += 1;
                    self.counters.recovery_replays += 1;
                    self.emit_event(EventKind::RecoveryReplay, region, expect_lsn);
                    self.regions[&region].last_logged.clone()
                }
            },
            // Never flushed (a clean-evicted page allocated mid-run):
            // the logged image is authoritative.
            None => self.regions[&region].last_logged.clone(),
        };
        env.mem.write_bytes(Addr(region), &content);
        let pc = Pc::new(PAGER_MODULE, SITE_READIN);
        for i in 0..(len as u64 / XFER_STRIDE) {
            env.rec.emit(TraceOp::store(pc, Addr(region).offset(i * XFER_STRIDE), 8));
        }
    }

    /// Commits the mini-transaction: diffs every pinned page and every
    /// permanent region against its last logged image, logs a full-page
    /// image (first change) or byte-range deltas (later changes), seals
    /// with a commit record, and unpins.
    pub fn mtr_end(&mut self, env: &mut Env) {
        assert!(self.in_mtr, "mtr_end without mtr_begin");
        self.counters.max_pinned = self.counters.max_pinned.max(self.mtr_pinned.len() as u64);
        let mut to_log: Vec<u64> = std::mem::take(&mut self.mtr_pinned);
        let mut perms: Vec<u64> =
            self.regions.iter().filter(|(_, st)| st.permanent).map(|(id, _)| *id).collect();
        perms.sort_unstable();
        to_log.extend(perms);
        for region in to_log {
            let st = self.regions.get_mut(&region).expect("page state");
            let current = env.mem.bytes(Addr(region), st.len);
            if current != st.last_logged {
                let lsn = if st.has_fpi {
                    let ranges = diff_ranges(&st.last_logged, &current);
                    self.wal.append(WalPayload::Delta { region, ranges })
                } else {
                    st.has_fpi = true;
                    self.wal.append(WalPayload::Image { region, bytes: current.clone() })
                };
                st.page_lsn = lsn;
                st.last_logged = current;
            }
            st.pinned = false;
        }
        self.mtr_seq += 1;
        self.wal.append(WalPayload::Commit { mtr: self.mtr_seq });
        self.counters.mtrs += 1;
        self.in_mtr = false;
    }

    /// Flushes every dirty region (a clean checkpoint; used by tests and
    /// shutdown paths — recovery never requires it).
    pub fn flush_all(&mut self, env: &mut Env) {
        assert!(!self.in_mtr, "checkpoint inside a mini-transaction");
        let mut ids: Vec<u64> = self
            .regions
            .iter()
            .filter(|(_, st)| st.page_lsn > st.flushed_lsn)
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        for id in ids {
            self.flush_region(env, id);
        }
    }

    /// Counter snapshot.
    pub fn counters(&self) -> PagerCounters {
        self.counters
    }

    /// The durable log.
    pub fn wal(&self) -> &DurableWal {
        &self.wal
    }

    /// The simulated disk.
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// Direct disk mutation for corruption tests (quarantine paths that
    /// the fault grid cannot reach, because write-ahead keeps every
    /// journaled write recoverable).
    pub fn disk_mut(&mut self) -> &mut SimDisk {
        &mut self.disk
    }

    /// LSN of the last durable record — the upper bound of the
    /// crash-at-LSN grid.
    pub fn last_lsn(&self) -> u64 {
        self.wal.last_lsn()
    }

    /// Recovers the world as a crash at durable-log position `k` would
    /// leave it: the disk image cut at `k`, replayed with the log prefix
    /// of `k` records.
    pub fn crash_point(&self, k: u64) -> RecoveredWorld {
        recover(&self.disk.crash_image(k), self.wal.crash_prefix(k))
    }

    /// Drains the observation event buffer (empty when `observe` was
    /// false).
    pub fn take_events(&mut self) -> Vec<Event> {
        self.events.take().unwrap_or_default()
    }
}

/// Ascending, non-overlapping changed byte ranges between two images,
/// coalescing gaps of up to 8 unchanged bytes (delta records stay small
/// without fragmenting per byte).
fn diff_ranges(old: &[u8], new: &[u8]) -> Vec<(u32, Vec<u8>)> {
    assert_eq!(old.len(), new.len(), "region length changed");
    let mut ranges: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut i = 0usize;
    while i < new.len() {
        if old[i] == new[i] {
            i += 1;
            continue;
        }
        let start = i;
        let mut end = i + 1;
        let mut gap = 0usize;
        for (j, (&o, &n)) in old.iter().zip(new.iter()).enumerate().skip(end) {
            if o == n {
                gap += 1;
                if gap > 8 {
                    break;
                }
            } else {
                gap = 0;
                end = j + 1;
            }
        }
        ranges.push((start as u32, new[start..end].to_vec()));
        i = end;
    }
    ranges
}

/// A region recovery could not rebuild, with the reason — mirrors the
/// harness snapshot-store quarantine idiom (evidence over silence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedPage {
    /// Region base address.
    pub region: u64,
    /// Why it could not be recovered.
    pub reason: String,
}

/// The result of REDO recovery: a rebuilt memory image plus an audit of
/// what it took.
#[derive(Debug)]
pub struct RecoveredWorld {
    /// The rebuilt simulated memory — every recovered region at its
    /// original address (read it through
    /// [`BTree::open_existing`](crate::BTree::open_existing)).
    pub mem: SimMemory,
    /// Mini-transactions whose commit records survived: the oracle
    /// replays exactly this many batches of its shadow journal.
    pub durable_mtrs: u64,
    /// LSN of the last durable commit (0 when none).
    pub durable_lsn: u64,
    /// Full-page images applied.
    pub images_applied: u64,
    /// Delta records applied.
    pub deltas_applied: u64,
    /// Regions recoverable from neither disk nor log.
    pub quarantined: Vec<QuarantinedPage>,
}

/// ARIES-style REDO: replays the durable log prefix onto a (possibly
/// corrupt) disk image.
///
/// Per region, the starting point is the disk copy when its envelope
/// checksum validates and its LSN is not from the future; otherwise the
/// region's first full-page image in the log. Records with `lsn` beyond
/// the starting point are applied in order. Records after the last
/// commit (a crash mid-mtr) and records failing their CRC (a torn log
/// tail) are dropped before replay.
pub fn recover(disk_image: &HashMap<u64, Vec<u8>>, records: &[WalRecord]) -> RecoveredWorld {
    // 1. The structurally valid prefix: contiguous LSNs, valid CRCs.
    let mut valid = 0usize;
    for r in records {
        if r.lsn == valid as u64 + 1 && r.verify() {
            valid += 1;
        } else {
            break;
        }
    }
    // 2. Drop the trailing uncommitted run.
    let last_commit = records[..valid]
        .iter()
        .rposition(|r| matches!(r.payload, WalPayload::Commit { .. }))
        .map(|i| i + 1)
        .unwrap_or(0);
    let durable = &records[..last_commit];
    let durable_lsn = last_commit as u64;
    let durable_mtrs =
        durable.iter().filter(|r| matches!(r.payload, WalPayload::Commit { .. })).count() as u64;

    // 3. Records per region, in log order.
    let mut by_region: HashMap<u64, Vec<&WalRecord>> = HashMap::new();
    for r in durable {
        if let Some(region) = r.payload.region() {
            by_region.entry(region).or_default().push(r);
        }
    }

    // 4. Rebuild each region.
    let mut regions: Vec<u64> =
        disk_image.keys().copied().chain(by_region.keys().copied()).collect();
    regions.sort_unstable();
    regions.dedup();

    let mut rebuilt: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut quarantined = Vec::new();
    let mut images_applied = 0u64;
    let mut deltas_applied = 0u64;
    let no_records = Vec::new();
    for region in regions {
        let disk_start = disk_image
            .get(&region)
            .and_then(|e| envelope_decode(e).ok())
            .map(|(lsn, payload)| (lsn, payload.to_vec()))
            // A disk LSN beyond the durable log would mean unlogged
            // durable data — impossible under write-ahead, so treat it
            // as corruption rather than trusting it.
            .filter(|(lsn, _)| *lsn <= durable_lsn);
        let (mut lsn, mut bytes, mut have_base) = match disk_start {
            Some((l, b)) => (l, b, true),
            None => (0, Vec::new(), false),
        };
        let mut fault: Option<String> = None;
        for r in by_region.get(&region).unwrap_or(&no_records) {
            if have_base && r.lsn <= lsn {
                continue; // already reflected in the starting image
            }
            match &r.payload {
                WalPayload::Image { bytes: b, .. } => {
                    bytes = b.clone();
                    lsn = r.lsn;
                    have_base = true;
                    images_applied += 1;
                }
                WalPayload::Delta { ranges, .. } => {
                    if !have_base {
                        fault =
                            Some(format!("delta at lsn {} with no recoverable base image", r.lsn));
                        break;
                    }
                    for (off, repl) in ranges {
                        let s = *off as usize;
                        if s + repl.len() > bytes.len() {
                            fault = Some(format!(
                                "delta at lsn {} out of bounds ({}+{} > {})",
                                r.lsn,
                                s,
                                repl.len(),
                                bytes.len()
                            ));
                            break;
                        }
                        bytes[s..s + repl.len()].copy_from_slice(repl);
                    }
                    if fault.is_some() {
                        break;
                    }
                    lsn = r.lsn;
                    deltas_applied += 1;
                }
                WalPayload::Commit { .. } => unreachable!("commits carry no region"),
            }
        }
        if let Some(reason) = fault {
            quarantined.push(QuarantinedPage { region, reason });
            continue;
        }
        if !have_base {
            quarantined.push(QuarantinedPage {
                region,
                reason: "no valid disk image and no full-page image in the log".into(),
            });
            continue;
        }
        rebuilt.push((region, bytes));
    }

    // 5. Materialize the memory image at the original addresses.
    let mut mem = SimMemory::new();
    if let Some(end) = rebuilt.iter().map(|(r, b)| r + b.len() as u64).max() {
        mem.grow(end);
    }
    for (region, bytes) in &rebuilt {
        mem.write_bytes(Addr(*region), bytes);
    }
    RecoveredWorld { mem, durable_mtrs, durable_lsn, images_applied, deltas_applied, quarantined }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalPayload;

    #[test]
    fn diff_ranges_finds_and_coalesces_changes() {
        let old = vec![0u8; 64];
        let mut new = old.clone();
        new[3] = 1;
        new[5] = 2; // gap of 1 -> coalesced
        new[40] = 3; // far away -> own range
        let ranges = diff_ranges(&old, &new);
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0], (3, vec![1, 0, 2]));
        assert_eq!(ranges[1], (40, vec![3]));
        // Applying the ranges reproduces `new`.
        let mut applied = old.clone();
        for (off, repl) in &ranges {
            applied[*off as usize..*off as usize + repl.len()].copy_from_slice(repl);
        }
        assert_eq!(applied, new);
    }

    #[test]
    fn diff_ranges_empty_when_identical() {
        let img = vec![7u8; 32];
        assert!(diff_ranges(&img, &img).is_empty());
    }

    #[test]
    fn recover_prefers_disk_then_replays_deltas() {
        let mut wal = DurableWal::new();
        wal.append(WalPayload::Image { region: 0x1000, bytes: vec![1; 8] });
        wal.append(WalPayload::Commit { mtr: 1 });
        wal.append(WalPayload::Delta { region: 0x1000, ranges: vec![(0, vec![9])] });
        wal.append(WalPayload::Commit { mtr: 2 });
        // Disk holds the image as of lsn 1; deltas after it replay.
        let mut disk = HashMap::new();
        disk.insert(0x1000u64, envelope_encode(1, &[1u8; 8]));
        let w = recover(&disk, wal.records());
        assert_eq!(w.durable_mtrs, 2);
        assert_eq!(w.durable_lsn, 4);
        assert_eq!(w.deltas_applied, 1);
        assert_eq!(w.images_applied, 0, "disk base made the image redundant");
        assert_eq!(w.mem.bytes(Addr(0x1000), 8), &[9, 1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn recover_rebuilds_corrupt_disk_from_the_log() {
        let mut wal = DurableWal::new();
        wal.append(WalPayload::Image { region: 0x1000, bytes: vec![1; 8] });
        wal.append(WalPayload::Delta { region: 0x1000, ranges: vec![(7, vec![5])] });
        wal.append(WalPayload::Commit { mtr: 1 });
        let mut disk = HashMap::new();
        let mut bad = envelope_encode(2, &[1u8; 8]);
        bad[20] ^= 0x40; // flip a payload bit: checksum must catch it
        disk.insert(0x1000u64, bad);
        let w = recover(&disk, wal.records());
        assert!(w.quarantined.is_empty());
        assert_eq!(w.images_applied, 1);
        assert_eq!(w.mem.bytes(Addr(0x1000), 8), &[1, 1, 1, 1, 1, 1, 1, 5]);
    }

    #[test]
    fn recover_drops_the_uncommitted_tail() {
        let mut wal = DurableWal::new();
        wal.append(WalPayload::Image { region: 0x1000, bytes: vec![1; 4] });
        wal.append(WalPayload::Commit { mtr: 1 });
        wal.append(WalPayload::Delta { region: 0x1000, ranges: vec![(0, vec![9])] });
        // No commit for the delta: a crash mid-mtr.
        let w = recover(&HashMap::new(), wal.records());
        assert_eq!(w.durable_mtrs, 1);
        assert_eq!(w.mem.bytes(Addr(0x1000), 4), &[1, 1, 1, 1]);
    }

    #[test]
    fn recover_quarantines_the_unrecoverable_with_a_reason() {
        let mut wal = DurableWal::new();
        wal.append(WalPayload::Delta { region: 0x2000, ranges: vec![(0, vec![9])] });
        wal.append(WalPayload::Commit { mtr: 1 });
        let mut disk = HashMap::new();
        let mut bad = envelope_encode(0, &[3u8; 8]);
        bad[0] ^= 1; // corrupt header: no valid base anywhere
        disk.insert(0x2000u64, bad);
        let w = recover(&disk, wal.records());
        assert_eq!(w.quarantined.len(), 1);
        assert_eq!(w.quarantined[0].region, 0x2000);
        assert!(w.quarantined[0].reason.contains("no recoverable base image"));
    }

    #[test]
    fn recover_distrusts_future_disk_lsns() {
        // Disk claims lsn 7 but the durable log only reaches 2: the
        // envelope is self-consistent yet impossible under write-ahead.
        let mut wal = DurableWal::new();
        wal.append(WalPayload::Image { region: 0x1000, bytes: vec![4; 8] });
        wal.append(WalPayload::Commit { mtr: 1 });
        let mut disk = HashMap::new();
        disk.insert(0x1000u64, envelope_encode(7, &[9u8; 8]));
        let w = recover(&disk, wal.records());
        assert!(w.quarantined.is_empty());
        assert_eq!(w.mem.bytes(Addr(0x1000), 8), &[4; 8], "log image wins");
    }
}
