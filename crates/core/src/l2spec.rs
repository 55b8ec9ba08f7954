//! The shared L2 cache extended with speculative state — the hardware
//! substrate of sub-threads (paper §2.1–2.2).
//!
//! Per 32-byte line the L2 tracks, for every *(CPU, sub-thread)* context:
//!
//! * a **speculatively-loaded** bit, at cache-line granularity, and
//! * **speculatively-modified** bits, at word granularity,
//!
//! i.e. the paper's "2 bits of storage per cache line per sub-thread".
//! Multiple speculative *versions* of a line — one per modifying thread —
//! coexist in the ways of one set ("we allow the L2 cache to manage
//! multiple versions of each cache line by using the different ways of
//! each associative set"), and a small fully-associative victim cache
//! catches speculative lines displaced by conflict misses.
//!
//! Violation detection: every store (write-through from the L1s) looks up
//! the line's speculatively-loaded bits; each logically-later thread with
//! the bit set is reported together with the *earliest* sub-thread that
//! loaded the line, which is where that thread must rewind to.

use crate::config::{MAX_CPUS, MAX_SUBTHREADS};
use crate::linemap::LineMap;
use serde::{Deserialize, Serialize};
use tls_cache::{
    BankArray, CacheParams, CacheStats, Inserted, MemBus, MemParams, SetAssoc, VictimBuffer,
};
use tls_trace::{Addr, Pc};

/// Maximum 8-byte words per line supported by the bit-packing.
const MAX_WORDS: usize = 8;

/// Identifies the issuing context of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessCtx {
    /// Issuing CPU.
    pub cpu: usize,
    /// Its current sub-thread index.
    pub sub: u8,
    /// Whether the access is speculative (false for the oldest thread and
    /// for sequential regions — their accesses commit directly).
    pub speculative: bool,
}

/// Why a thread must rewind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ViolationKind {
    /// A read-after-write dependence was violated by a store from a
    /// logically-earlier thread.
    Raw,
    /// Logically-later thread rewound because an earlier thread it may
    /// have consumed data from was itself rewound.
    Secondary,
    /// Speculative state overflowed the L2 + victim cache.
    Overflow,
    /// A spurious violation injected by the chaos harness
    /// ([`crate::chaos::FaultClass`]); exercises the recovery machinery
    /// but is counted separately from genuine dependences.
    Injected,
    /// A value prediction that suppressed a RAW violation turned out
    /// wrong at commit-time validation; the epoch rewinds to the
    /// earliest sub-thread that consumed the mispredicted value.
    ValueMispredict,
}

/// A violation detected by the memory system, to be applied by the
/// simulator at the end of the cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingViolation {
    /// The CPU whose thread must rewind.
    pub cpu: usize,
    /// The sub-thread to rewind to.
    pub sub: u8,
    /// Logical order of the targeted epoch at detection time; the
    /// violation is stale (and ignored) if the CPU runs a different epoch
    /// when it is applied.
    pub order: u32,
    /// Classification for statistics and profiling.
    pub kind: ViolationKind,
    /// The line whose dependence was violated (RAW/overflow).
    pub line: Addr,
    /// PC of the offending store, when known (RAW only).
    pub store_pc: Option<Pc>,
}

/// Outcome of an L2 read.
#[derive(Debug, Clone, Default)]
pub struct L2Outcome {
    /// Cycle the requested data is available to the core.
    pub completion: u64,
    /// Whether the access hit in the L2 (or its victim cache).
    pub hit: bool,
    /// For loads: the load was *exposed* — not preceded by a store from
    /// the same thread to the same word(s) — and therefore had its
    /// speculatively-loaded bit recorded.
    pub exposed: bool,
    /// Threads whose speculative state was displaced beyond recovery by
    /// this access (speculative overflow).
    pub overflow_victims: Vec<(usize, u8)>,
    /// For stores: `(cpu, earliest sub-thread)` of every *other* thread
    /// that speculatively loaded this line. The simulator filters these to
    /// logically-later threads and raises RAW violations.
    pub readers: Vec<(usize, u8)>,
}

/// Per-line speculative metadata: one bit per context slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LineMeta {
    /// Speculatively-loaded, line granularity: bit `slot`.
    sl: u64,
    /// Speculatively-modified, word granularity: `sm[word]` bit `slot`.
    sm: [u64; MAX_WORDS],
    /// Which CPUs' `touched` work lists contain this line (bit `cpu`).
    /// Appends to the lists are gated on this mask, so a line enters each
    /// list at most once no matter how often the epoch re-accesses it.
    touched: u8,
}

impl LineMeta {
    /// No speculative bits for any context. Deliberately ignores
    /// `touched`: a line that is merely on a work list behaves exactly
    /// like one with no metadata at all.
    fn is_clear(&self) -> bool {
        self.sl == 0 && self.sm.iter().all(|&w| w == 0)
    }

    fn sm_any(&self) -> u64 {
        self.sm.iter().fold(0, |a, &w| a | w)
    }
}

/// A resident L2 entry: one version of one line.
///
/// `owner == None` is the committed (architectural) version; `Some(cpu)`
/// a speculative version created by that CPU's stores.
type VersionKey = (u64, Option<u8>);

/// The shared L2 with speculative-state extensions and its victim cache.
#[derive(Debug)]
pub struct SpecL2 {
    params: CacheParams,
    entries: SetAssoc<VersionKey, ()>,
    victim: VictimBuffer<VersionKey, ()>,
    meta: LineMap<LineMeta>,
    banks: BankArray,
    bus: MemBus,
    stats: CacheStats,
    mem_cfg: MemParams,
    max_subs: u8,
    cpus: usize,
    track: bool,
    /// Lines touched speculatively, per CPU (duplicate-free — appends
    /// are gated on [`LineMeta::touched`]): the work lists for commit
    /// and rewind.
    touched: Vec<Vec<u64>>,
    /// Reusable buffer for overflow victims discarded on the
    /// victim-cache reinstall path (see [`SpecL2::line_resident`]).
    lr_scratch: Vec<(usize, u8)>,
    /// Lines displaced from a set into the victim cache over the whole
    /// run (monotonic; the observer diffs it to emit spill events).
    victim_inserts: u64,
}

impl SpecL2 {
    /// A new speculative L2.
    ///
    /// # Panics
    ///
    /// Panics if the geometry exceeds the slot-packing limits
    /// (`cpus * max_subs > 64`, more 8-byte words per line than the
    /// bit-packing supports).
    pub fn new(
        params: CacheParams,
        mem: MemParams,
        victim_entries: usize,
        cpus: usize,
        max_subs: u8,
        track: bool,
    ) -> Self {
        assert!(cpus <= MAX_CPUS && max_subs as usize <= MAX_SUBTHREADS);
        assert!(cpus * max_subs as usize <= 64, "too many context slots");
        assert!(params.words_per_line() as usize <= MAX_WORDS, "line too long");
        // The `LineMeta::touched` CPU mask is a u8.
        const _: () = assert!(MAX_CPUS <= 8);
        SpecL2 {
            entries: SetAssoc::new(params.sets() as usize, params.ways as usize),
            victim: VictimBuffer::new(victim_entries),
            meta: LineMap::new(),
            banks: BankArray::new(&mem, params.line_shift()),
            bus: MemBus::new(&mem),
            stats: CacheStats::default(),
            mem_cfg: mem,
            max_subs,
            cpus,
            track,
            touched: vec![Vec::new(); cpus],
            lr_scratch: Vec::new(),
            victim_inserts: 0,
            params,
        }
    }

    fn slot(&self, cpu: usize, sub: u8) -> u32 {
        debug_assert!(cpu < self.cpus && sub < self.max_subs);
        (cpu as u32) * self.max_subs as u32 + sub as u32
    }

    fn cpu_mask(&self, cpu: usize) -> u64 {
        (((1u128 << self.max_subs) - 1) as u64) << (cpu as u32 * self.max_subs as u32)
    }

    /// Mask of slots `(cpu, sub)` for `sub >= from`.
    fn cpu_mask_from(&self, cpu: usize, from: u8) -> u64 {
        let per_cpu = ((1u128 << self.max_subs) - 1) as u64;
        let tail = per_cpu & !((1u64 << from) - 1);
        tail << (cpu as u32 * self.max_subs as u32)
    }

    fn min_sub_in(&self, bits: u64, cpu: usize) -> Option<u8> {
        let m = (bits & self.cpu_mask(cpu)) >> (cpu as u32 * self.max_subs as u32);
        if m == 0 {
            None
        } else {
            Some(m.trailing_zeros() as u8)
        }
    }

    /// Words of the line covered by an access of `size` bytes at `addr`.
    /// Accesses never span lines in the recorded traces; if one did, the
    /// spill-over words would be attributed to the first line
    /// (conservative for exposure, harmless for modification tracking).
    fn words_of(&self, addr: Addr, size: u8) -> (u32, u32) {
        let first = self.params.word_in_line(addr);
        let last = self.params.word_in_line(Addr(addr.0 + size as u64 - 1)).max(first);
        (first, last)
    }

    /// True if `line` (any version) must not be silently dropped.
    fn line_is_spec(&self, line: u64) -> bool {
        self.meta.get(line).is_some_and(|m| !m.is_clear())
    }

    /// Is any version of `line` resident (set or victim cache)?
    fn line_resident(&mut self, line: u64) -> Option<VersionKey> {
        let set = self.params.set_index(Addr(line));
        // One scan finds the version and refreshes its LRU recency.
        if let Some(key) = self.entries.touch_where(set, |k| k.0 == line) {
            return Some(key);
        }
        // Victim hit: swap the version back into the set. Overflow from
        // the reinstall is dropped, as it always has been (the displaced
        // version lands back in the just-vacated victim slot).
        if let Some((key, ())) = self.victim.take_where(|k| k.0 == line) {
            let mut scratch = std::mem::take(&mut self.lr_scratch);
            scratch.clear();
            self.install_into(key, &mut scratch);
            self.lr_scratch = scratch;
            return Some(key);
        }
        None
    }

    /// Installs a version entry, routing displaced speculative versions to
    /// the victim cache and appending overflow victims to `overflow`.
    fn install_into(&mut self, key: VersionKey, overflow: &mut Vec<(usize, u8)>) {
        let set = self.params.set_index(Addr(key.0));
        if self.entries.peek(set, key).is_some() {
            return;
        }
        let meta = &self.meta;
        let spec = |k: &VersionKey| k.1.is_some() || meta.get(k.0).is_some_and(|m| !m.is_clear());
        let outcome = self.entries.insert_with(set, key, (), |k, _| !spec(k));
        let displaced = match outcome {
            Inserted::Placed => None,
            Inserted::Evicted(k, ()) => {
                self.stats.evictions += 1;
                Some(k)
            }
            Inserted::SetFull => {
                // Every way holds speculative state: evict the LRU
                // speculative version into the victim cache.
                match self.entries.insert(set, key, ()) {
                    Inserted::Evicted(k, ()) => {
                        self.stats.evictions += 1;
                        Some(k)
                    }
                    _ => unreachable!("full set must evict"),
                }
            }
        };
        if let Some(victim_key) = displaced {
            if victim_key.1.is_some() || self.line_is_spec(victim_key.0) {
                self.victim_inserts += 1;
                if let Some((lost, ())) = self.victim.insert(victim_key, ()) {
                    self.overflow_victims_into(lost, overflow);
                }
            }
            // Non-speculative displaced lines are silently written back.
        }
    }

    /// Appends the threads whose state is unrecoverable once `lost` is
    /// dropped.
    fn overflow_victims_into(&self, lost: VersionKey, victims: &mut Vec<(usize, u8)>) {
        let Some(meta) = self.meta.get(lost.0) else { return };
        match lost.1 {
            Some(cpu) => {
                // A speculative version died: its owner cannot commit.
                if let Some(sub) = self.min_sub_in(meta.sm_any(), cpu as usize) {
                    victims.push((cpu as usize, sub));
                } else {
                    victims.push((cpu as usize, 0));
                }
            }
            None => {
                // The base copy of a line with recorded speculative loads
                // died: every reader loses its dependence tracking.
                for cpu in 0..self.cpus {
                    if let Some(sub) = self.min_sub_in(meta.sl, cpu) {
                        victims.push((cpu, sub));
                    }
                }
            }
        }
    }

    /// Records the speculatively-loaded bit for a load that *hit in the
    /// L1* (the notification travels off the critical path; no bank time).
    /// Returns whether the load was exposed.
    pub fn note_l1_load(&mut self, addr: Addr, size: u8, ctx: AccessCtx) -> bool {
        if !self.track || !ctx.speculative {
            return true;
        }
        let line = self.params.line_addr(addr).0;
        self.record_load(line, addr, size, ctx)
    }

    fn record_load(&mut self, line: u64, addr: Addr, size: u8, ctx: AccessCtx) -> bool {
        let slot = self.slot(ctx.cpu, ctx.sub);
        let own = self.cpu_mask(ctx.cpu);
        let (w0, w1) = self.words_of(addr, size);
        let meta = self.meta.entry_or_default(line);
        let exposed = (w0..=w1).any(|w| meta.sm[w as usize] & own == 0);
        if exposed {
            meta.sl |= 1 << slot;
            if meta.touched & (1 << ctx.cpu) == 0 {
                meta.touched |= 1 << ctx.cpu;
                self.touched[ctx.cpu].push(line);
            }
        }
        exposed
    }

    /// An L1 read miss arriving at the L2 at `arrival` (allocating
    /// convenience wrapper over [`read_into`](Self::read_into)).
    pub fn read(&mut self, arrival: u64, addr: Addr, size: u8, ctx: AccessCtx) -> L2Outcome {
        let mut out = L2Outcome::default();
        self.read_into(arrival, addr, size, ctx, &mut out);
        out
    }

    /// An L1 read miss arriving at the L2 at `arrival`. The outcome is
    /// written into the caller-provided `out` (its buffers are cleared
    /// first), so a caller that reuses one `L2Outcome` never allocates.
    pub fn read_into(
        &mut self,
        arrival: u64,
        addr: Addr,
        size: u8,
        ctx: AccessCtx,
        out: &mut L2Outcome,
    ) {
        out.overflow_victims.clear();
        out.readers.clear();
        let line = self.params.line_addr(addr).0;
        let bank_start = self.banks.book(addr, arrival);
        let resident = self.line_resident(line);
        self.stats.record(resident.is_some());
        out.completion = match resident {
            Some(_) => bank_start + self.mem_cfg.l2_min_latency - 1,
            None => {
                let mem_start = self.bus.book(bank_start);
                self.install_into((line, None), &mut out.overflow_victims);
                mem_start + self.mem_cfg.mem_min_latency - 1
            }
        };
        out.hit = resident.is_some();
        out.exposed = if self.track && ctx.speculative {
            self.record_load(line, addr, size, ctx)
        } else {
            true
        };
    }

    /// A write-through store arriving at the L2 at `arrival` (allocating
    /// convenience wrapper over [`write_into`](Self::write_into)).
    pub fn write(&mut self, arrival: u64, addr: Addr, size: u8, ctx: AccessCtx) -> L2Outcome {
        let mut out = L2Outcome::default();
        self.write_into(arrival, addr, size, ctx, &mut out);
        out
    }

    /// A write-through store arriving at the L2 at `arrival`.
    ///
    /// Creates/updates this thread's version of the line, records
    /// word-granularity speculatively-modified bits, and reports every
    /// other thread whose speculatively-loaded bit is set on the line.
    /// Results are written into the caller-provided `out`.
    pub fn write_into(
        &mut self,
        arrival: u64,
        addr: Addr,
        size: u8,
        ctx: AccessCtx,
        out: &mut L2Outcome,
    ) {
        out.overflow_victims.clear();
        out.readers.clear();
        let line = self.params.line_addr(addr).0;
        self.banks.book(addr, arrival);
        let owner = if ctx.speculative { Some(ctx.cpu as u8) } else { None };
        // Fetch-on-write if no version of the line is resident at all.
        if self.line_resident(line).is_none() {
            self.bus.book(arrival);
        }
        let key = (line, owner);
        let set = self.params.set_index(Addr(line));
        if self.entries.peek(set, key).is_none() {
            let _ = self.victim.take_where(|k| *k == key);
            self.install_into(key, &mut out.overflow_victims);
        } else {
            let _ = self.entries.probe(set, key);
        }
        if self.track {
            if ctx.speculative {
                let slot = self.slot(ctx.cpu, ctx.sub);
                let (w0, w1) = self.words_of(addr, size);
                let meta = self.meta.entry_or_default(line);
                for w in w0..=w1 {
                    meta.sm[w as usize] |= 1 << slot;
                }
                if meta.touched & (1 << ctx.cpu) == 0 {
                    meta.touched |= 1 << ctx.cpu;
                    self.touched[ctx.cpu].push(line);
                }
            }
            if let Some(meta) = self.meta.get(line) {
                for cpu in 0..self.cpus {
                    if cpu == ctx.cpu {
                        continue;
                    }
                    if let Some(sub) = self.min_sub_in(meta.sl, cpu) {
                        out.readers.push((cpu, sub));
                    }
                }
            }
        }
        out.completion = arrival; // stores drain through the store buffer
        out.hit = true;
        out.exposed = false;
    }

    /// Sub-thread context recycling: merges `cpu`'s sub-thread column `m`
    /// into `m-1` and shifts the higher columns down by one. In hardware
    /// this is a pair of ORs and a shift over the per-context bit columns
    /// of each line the thread touched.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= m < max_subs`.
    pub fn merge_subthread(&mut self, cpu: usize, m: u8) {
        assert!(m >= 1 && m < self.max_subs, "cannot merge sub-thread column {m}");
        let base = cpu as u32 * self.max_subs as u32;
        let s = self.max_subs as u32;
        // The work list is duplicate-free by construction; it is sorted
        // so downstream set/victim operations happen in a canonical
        // line order regardless of access order.
        let mut lines = std::mem::take(&mut self.touched[cpu]);
        lines.sort_unstable();
        for line in &lines {
            if let Some(meta) = self.meta.get_mut(*line) {
                meta.sl = merge_column(meta.sl, base, s, m as u32);
                for w in meta.sm.iter_mut() {
                    *w = merge_column(*w, base, s, m as u32);
                }
            }
        }
        self.touched[cpu] = lines;
    }

    /// Violation recovery for `cpu`: discards speculative-loaded and
    /// speculative-modified state of sub-threads `from_sub..`, and drops
    /// this CPU's version of any line it no longer modifies.
    pub fn rewind(&mut self, cpu: usize, from_sub: u8) {
        let mask = self.cpu_mask_from(cpu, from_sub);
        let full = self.cpu_mask(cpu);
        let own_touch = 1u8 << cpu;
        let mut lines = std::mem::take(&mut self.touched[cpu]);
        lines.sort_unstable();
        let SpecL2 { meta, entries, victim, params, .. } = &mut *self;
        // Lines with surviving (sub < from_sub) state stay on the work
        // list for the eventual commit/rewind-to-0; dropped lines leave
        // the per-line touched mask so a later access can re-append.
        lines.retain(|&line| {
            let Some(m) = meta.get_mut(line) else { return false };
            m.sl &= !mask;
            let mut still_modifies = false;
            for w in m.sm.iter_mut() {
                *w &= !mask;
                still_modifies |= *w & full != 0;
            }
            if !still_modifies {
                let set = params.set_index(Addr(line));
                let key = (line, Some(cpu as u8));
                let _ = entries.remove(set, key);
                let _ = victim.take_where(|k| *k == key);
            }
            if (m.sl | m.sm_any()) & full != 0 {
                return true;
            }
            m.touched &= !own_touch;
            let dead = m.is_clear() && m.touched == 0;
            if dead {
                meta.remove(line);
            }
            false
        });
        self.touched[cpu] = lines;
    }

    /// Commits `cpu`'s speculative state: clears its loaded/modified bits
    /// and converts its versions into the architectural copy of each line.
    /// Returns threads whose state was displaced by the re-keying
    /// (allocating convenience wrapper over
    /// [`commit_into`](Self::commit_into)).
    pub fn commit(&mut self, cpu: usize) -> Vec<(usize, u8)> {
        let mut overflow = Vec::new();
        self.commit_into(cpu, &mut overflow);
        overflow
    }

    /// Commits `cpu`'s speculative state, appending displaced threads to
    /// the caller-provided `overflow` buffer.
    pub fn commit_into(&mut self, cpu: usize, overflow: &mut Vec<(usize, u8)>) {
        let full = self.cpu_mask(cpu);
        let own_touch = 1u8 << cpu;
        let mut lines = std::mem::take(&mut self.touched[cpu]);
        lines.sort_unstable();
        for &line in &lines {
            let Some(meta) = self.meta.get_mut(line) else { continue };
            meta.sl &= !full;
            let mut modified = false;
            for w in meta.sm.iter_mut() {
                modified |= *w & full != 0;
                *w &= !full;
            }
            meta.touched &= !own_touch;
            let dead = meta.is_clear() && meta.touched == 0;
            if dead {
                self.meta.remove(line);
            }
            if modified {
                let set = self.params.set_index(Addr(line));
                let key = (line, Some(cpu as u8));
                let in_set = self.entries.remove(set, key).is_some();
                let in_victim = !in_set && self.victim.take(key).is_some();
                if in_set && self.entries.peek(set, (line, None)).is_none() {
                    self.install_into((line, None), overflow);
                }
                // A committed version found only in the victim cache is
                // treated as written back to memory.
                let _ = in_victim;
            }
        }
        // The drained work list's capacity is kept for the next epoch.
        lines.clear();
        self.touched[cpu] = lines;
    }

    /// L2 access statistics (reads).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Victim-cache statistics.
    pub fn victim_stats(&self) -> CacheStats {
        self.victim.stats()
    }

    /// Main-memory accesses issued.
    pub fn mem_accesses(&self) -> u64 {
        self.bus.accesses()
    }

    /// Lines currently carrying speculative metadata (for tests and
    /// capacity reporting).
    pub fn spec_lines(&self) -> usize {
        self.meta.len()
    }

    /// Lines currently buffered in the victim cache (occupancy gauge).
    pub fn victim_len(&self) -> usize {
        self.victim.len()
    }

    /// Monotonic count of lines displaced into the victim cache; the
    /// observer diffs successive readings to emit spill events.
    pub fn victim_inserts(&self) -> u64 {
        self.victim_inserts
    }

    /// Current victim-cache capacity.
    pub fn victim_capacity(&self) -> usize {
        self.victim.capacity()
    }

    /// Resizes the victim cache (chaos-harness hook). Shrinking may
    /// displace buffered versions; displaced *speculative* versions are
    /// overflow events, and the affected `(cpu, sub)` pairs are returned
    /// for the simulator to rewind — exactly the paper's "speculation
    /// fails when even the victim cache overflows" path.
    pub fn set_victim_capacity(&mut self, capacity: usize) -> Vec<(usize, u8)> {
        let mut overflow = Vec::new();
        for (key, ()) in self.victim.set_capacity(capacity) {
            if key.1.is_some() {
                self.overflow_victims_into(key, &mut overflow);
            } else if self.meta.get(key.0).is_some_and(|m| m.sl != 0) {
                // A base copy with recorded speculative loads died.
                self.overflow_victims_into(key, &mut overflow);
            }
        }
        overflow.sort_unstable();
        overflow.dedup();
        overflow
    }

    /// Audit: lines still carrying speculative bits for `cpu`'s
    /// sub-threads `from..` — must be empty right after a rewind to
    /// `from` (only meaningful when dependence tracking is on).
    pub fn audit_subthread_residue(&self, cpu: usize, from: u8) -> Vec<String> {
        let mask = self.cpu_mask_from(cpu, from);
        let mut v: Vec<String> = self
            .meta
            .iter()
            .filter(|(_, m)| (m.sl | m.sm_any()) & mask != 0)
            .map(|(line, _)| {
                format!("line {line:#x} keeps spec bits for cpu {cpu} sub-threads {from}..")
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// Audit: after `cpu` commits, no speculative bit and no version it
    /// owns may remain anywhere in the L2 or the victim cache.
    pub fn audit_cpu_clear(&self, cpu: usize) -> Vec<String> {
        let mut v = self.audit_subthread_residue(cpu, 0);
        for (_, key, _) in self.entries.iter() {
            if key.1 == Some(cpu as u8) {
                v.push(format!(
                    "L2 still holds a speculative version of line {:#x} owned by cpu {cpu}",
                    key.0
                ));
            }
        }
        if self.victim.contains_where(|k| k.1 == Some(cpu as u8)) {
            v.push(format!("victim cache still holds a speculative version owned by cpu {cpu}"));
        }
        v
    }

    /// Audit: with every epoch committed, no speculative metadata or
    /// version may survive anywhere.
    pub fn audit_quiescent(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .meta
            .iter()
            .filter(|(_, m)| !m.is_clear())
            .map(|(line, _)| format!("line {line:#x} keeps spec metadata after full commit"))
            .collect();
        for (_, key, _) in self.entries.iter() {
            if let Some(cpu) = key.1 {
                v.push(format!(
                    "L2 keeps a speculative version of line {:#x} (cpu {cpu}) after full commit",
                    key.0
                ));
            }
        }
        if self.victim.contains_where(|k| k.1.is_some()) {
            v.push("victim cache keeps a speculative version after full commit".into());
        }
        v.sort_unstable();
        v
    }
}

/// Within the `s`-bit column group starting at `base`, ORs bit `m` into
/// bit `m-1` and shifts bits `m+1..s` down by one.
fn merge_column(x: u64, base: u32, s: u32, m: u32) -> u64 {
    let mask = (((1u128 << s) - 1) as u64) << base;
    let v = (x & mask) >> base;
    let keep = v & ((1u64 << (m - 1)) - 1);
    let merged = ((v >> (m - 1)) & 1) | ((v >> m) & 1);
    let high = v >> (m + 1);
    let nv = keep | (merged << (m - 1)) | (high << m);
    (x & !mask) | (nv << base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_column_bit_mechanics() {
        // 8-bit group at base 8; merge column 2 into 1.
        // bits: 0b_0110_0101 -> keep bit0 (1), bit1 := b1|b2 = 0|1 = 1,
        // bits 2.. := old 3.. = 0b01100 >> ... old v = 0b01100101:
        // keep=0b1, merged=1, high=0b01100 -> 0b0110011.
        let x = 0b0110_0101u64 << 8;
        let got = merge_column(x, 8, 8, 2);
        assert_eq!(got >> 8, 0b011_0011);
        // Other groups untouched.
        let noise = 0xFFu64 | (0xABu64 << 16);
        assert_eq!(merge_column(x | noise, 8, 8, 2), (0b011_0011 << 8) | noise);
    }

    fn l2(victim: usize, track: bool) -> SpecL2 {
        SpecL2::new(
            CacheParams::new(16 * 1024, 4, 32),
            MemParams::paper_default(),
            victim,
            4,
            8,
            track,
        )
    }

    fn spec(cpu: usize, sub: u8) -> AccessCtx {
        AccessCtx { cpu, sub, speculative: true }
    }

    fn nonspec(cpu: usize) -> AccessCtx {
        AccessCtx { cpu, sub: 0, speculative: false }
    }

    #[test]
    fn read_miss_then_hit_timing() {
        let mut c = l2(16, true);
        let miss = c.read(10, Addr(0x1000), 8, nonspec(0));
        assert!(!miss.hit);
        assert_eq!(miss.completion, 10 + 75 - 1);
        let hit = c.read(100, Addr(0x1000), 8, nonspec(0));
        assert!(hit.hit);
        assert_eq!(hit.completion, 100 + 10 - 1);
    }

    #[test]
    fn store_reports_spec_readers_with_earliest_subthread() {
        let mut c = l2(16, true);
        // CPU 1 loads the line in sub-threads 2 then 4 (earliest wins).
        c.read(0, Addr(0x2000), 8, spec(1, 2));
        c.read(10, Addr(0x2008), 8, spec(1, 4));
        // CPU 2 loads it too, in sub-thread 0.
        c.read(20, Addr(0x2000), 8, spec(2, 0));
        // CPU 0 stores to it.
        let out = c.write(30, Addr(0x2000), 8, spec(0, 1));
        assert_eq!(out.readers, vec![(1, 2), (2, 0)]);
    }

    #[test]
    fn own_loads_are_not_readers() {
        let mut c = l2(16, true);
        c.read(0, Addr(0x2000), 8, spec(0, 0));
        let out = c.write(10, Addr(0x2000), 8, spec(0, 1));
        assert!(out.readers.is_empty());
    }

    #[test]
    fn forwarded_loads_are_not_exposed() {
        let mut c = l2(16, true);
        // CPU 0 stores word 0, then loads it back: not exposed.
        c.write(0, Addr(0x3000), 8, spec(0, 0));
        let out = c.read(10, Addr(0x3000), 8, spec(0, 0));
        assert!(!out.exposed);
        // A load of a *different* word of the same line is exposed.
        let out2 = c.read(20, Addr(0x3008), 8, spec(0, 0));
        assert!(out2.exposed);
        // And the exposed load is visible to a later store's reader scan.
        let store = c.write(30, Addr(0x3008), 8, spec(1, 0));
        assert_eq!(store.readers, vec![(0, 0)]);
    }

    #[test]
    fn tracking_disabled_reports_nothing() {
        let mut c = l2(16, false);
        c.read(0, Addr(0x2000), 8, spec(1, 0));
        let out = c.write(10, Addr(0x2000), 8, spec(0, 0));
        assert!(out.readers.is_empty());
        assert_eq!(c.spec_lines(), 0);
    }

    #[test]
    fn rewind_clears_only_later_subthreads() {
        let mut c = l2(16, true);
        c.read(0, Addr(0x1000), 8, spec(1, 1));
        c.read(0, Addr(0x2000), 8, spec(1, 3));
        c.rewind(1, 2); // discard sub-threads 2..
        let out1 = c.write(10, Addr(0x1000), 8, spec(0, 0));
        assert_eq!(out1.readers, vec![(1, 1)], "sub-1 state survives");
        let out2 = c.write(20, Addr(0x2000), 8, spec(0, 0));
        assert!(out2.readers.is_empty(), "sub-3 state was rewound");
    }

    #[test]
    fn rewind_drops_versions_no_longer_modified() {
        let mut c = l2(16, true);
        c.write(0, Addr(0x1000), 8, spec(1, 2));
        assert_eq!(c.spec_lines(), 1);
        c.rewind(1, 0);
        assert_eq!(c.spec_lines(), 0);
        // Store from another CPU sees no readers/owners.
        let out = c.write(10, Addr(0x1000), 8, spec(0, 0));
        assert!(out.readers.is_empty());
    }

    #[test]
    fn commit_clears_state_and_keeps_line_resident() {
        let mut c = l2(16, true);
        c.write(0, Addr(0x1000), 8, spec(1, 0));
        c.read(0, Addr(0x1000), 8, spec(1, 0));
        let overflow = c.commit(1);
        assert!(overflow.is_empty());
        assert_eq!(c.spec_lines(), 0);
        // The committed data is still an L2 hit.
        let out = c.read(100, Addr(0x1000), 8, nonspec(0));
        assert!(out.hit);
        // And no stale readers are reported.
        let store = c.write(200, Addr(0x1000), 8, spec(2, 0));
        assert!(store.readers.is_empty());
    }

    #[test]
    fn versions_occupy_distinct_ways() {
        let mut c = l2(16, true);
        // Three CPUs store to the same line: base + 3 versions.
        c.read(0, Addr(0x4000), 8, nonspec(0)); // base fill
        c.write(1, Addr(0x4000), 8, spec(0, 0));
        c.write(2, Addr(0x4000), 8, spec(1, 0));
        c.write(3, Addr(0x4000), 8, spec(2, 0));
        // All still resident: a read hits.
        assert!(c.read(10, Addr(0x4000), 8, nonspec(3)).hit);
    }

    #[test]
    fn conflict_evictions_spill_to_victim_cache_not_overflow() {
        let mut c = l2(4, true);
        // 16KB, 4-way, 32B lines -> 128 sets; stride of 128*32 bytes maps
        // to one set. Fill the set with 4 speculative versions, then push
        // 2 more lines: displaced versions must land in the victim cache.
        let stride = 128 * 32;
        for i in 0..6u64 {
            let out = c.write(i, Addr(0x8000 + i * stride), 8, spec(0, 0));
            assert!(out.overflow_victims.is_empty(), "victim cache absorbs");
        }
        // All six lines still violate a later reader correctly: their SM
        // state survived.
        c.rewind(0, 0);
        assert_eq!(c.spec_lines(), 0);
    }

    #[test]
    fn victim_cache_overflow_violates_owner() {
        let mut c = l2(1, true);
        let stride = 128 * 32;
        let mut victims = Vec::new();
        // 4 ways + 1 victim entry = 5 speculative lines fit; the 7th
        // insertion displaces a line irrecoverably.
        for i in 0..8u64 {
            let out = c.write(i, Addr(0x8000 + i * stride), 8, spec(3, 2));
            victims.extend(out.overflow_victims);
        }
        assert!(victims.contains(&(3, 2)), "owner thread must be violated: {victims:?}");
    }

    #[test]
    fn merge_subthread_folds_reader_state_down() {
        let mut c = l2(16, true);
        c.read(0, Addr(0x1000), 8, spec(1, 2));
        c.read(0, Addr(0x2000), 8, spec(1, 5));
        // Merge column 3 into 2: the sub-2 reader stays at 2, sub-5
        // becomes sub-4.
        c.merge_subthread(1, 3);
        let a = c.write(10, Addr(0x1000), 8, spec(0, 0));
        assert_eq!(a.readers, vec![(1, 2)]);
        let b = c.write(20, Addr(0x2000), 8, spec(0, 0));
        assert_eq!(b.readers, vec![(1, 4)]);
        // Merge column 2 into 1: sub-2 state moves to sub-1.
        c.merge_subthread(1, 2);
        let a2 = c.write(30, Addr(0x1000), 8, spec(2, 0));
        assert_eq!(a2.readers, vec![(1, 1)]);
    }

    #[test]
    fn nonspec_store_still_sees_readers() {
        let mut c = l2(16, true);
        c.read(0, Addr(0x5000), 8, spec(2, 1));
        let out = c.write(10, Addr(0x5000), 8, nonspec(0));
        assert_eq!(out.readers, vec![(2, 1)]);
    }

    #[test]
    fn l1_hit_notification_records_sl() {
        let mut c = l2(16, true);
        assert!(c.note_l1_load(Addr(0x6000), 8, spec(1, 0)));
        let out = c.write(10, Addr(0x6000), 8, spec(0, 0));
        assert_eq!(out.readers, vec![(1, 0)]);
    }

    #[test]
    fn word_granularity_sm_tracks_partial_lines() {
        let mut c = l2(16, true);
        // CPU 0 stores word 0 of the line; its load of word 1 is exposed.
        c.write(0, Addr(0x7000), 8, spec(0, 0));
        assert!(c.read(1, Addr(0x7008), 8, spec(0, 0)).exposed);
        assert!(!c.read(2, Addr(0x7000), 4, spec(0, 0)).exposed);
    }

    #[test]
    fn bank_contention_delays_back_to_back_reads() {
        let mut c = l2(16, true);
        c.read(0, Addr(0x1000), 8, nonspec(0));
        c.read(500, Addr(0x1000), 8, nonspec(0)); // warm; hit
        let a = c.read(1000, Addr(0x1000), 8, nonspec(0));
        let b = c.read(1000, Addr(0x1000), 8, nonspec(1)); // same bank
        assert!(b.completion > a.completion);
    }
}
