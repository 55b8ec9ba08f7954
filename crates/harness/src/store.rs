//! The snapshot store: record-once / replay-many workload traces, plus a
//! content-addressed simulation-report cache.
//!
//! Recording a TPC-C benchmark (populate database, execute transactions,
//! capture every dynamic instruction) is pure — it depends only on the
//! [`TpccConfig`] (which embeds the workload seed and engine options),
//! the transaction and the instance count. Recordings of one scale and
//! seed that run at the same time share one populated database
//! (DESIGN.md §9.7). The store exploits purity in two layers:
//!
//! 1. **Trace snapshots** — the recorded `(plain, tls)` pair is written
//!    once to `traces/<name>-<key>.trace` in the versioned binary format
//!    of [`crate::codec`] and mapped in place ([`TraceView`]) by every
//!    binary and test that asks for the same key. Corrupt, stale or
//!    truncated snapshots fail closed *and self-heal*: the offending file
//!    is moved to `<dir>/quarantine/` beside a reason file naming the
//!    failure, and the trace is re-recorded and rewritten transparently.
//!    A big-endian host cannot map the little-endian records, so its
//!    store neither reads nor writes trace snapshots and records each
//!    pair in memory.
//! 2. **Simulation reports** — a simulation is likewise a pure function
//!    of (program bytes, machine configuration). When enabled, finished
//!    [`SimReport`]s are memoized in memory (deduplicating the many
//!    identical SEQUENTIAL/BASELINE runs shared across figures) and
//!    persisted under `traces/reports/` (on every host: the payload is
//!    JSON), so a warm-cache suite run replays timing results instead of
//!    re-simulating them. The sweep
//!    takes a cached report as its JSON bytes ([`ReportJson`]) and
//!    decodes nothing. A request that misses by exact key may still be
//!    answered in memory by a run of another sub-thread configuration
//!    whose [`Envelope`] covers it (DESIGN.md §9.8); the answer is filed
//!    on disk under the request's own key.
//!
//! Both layers are transparent: a cache hit returns bit-identical data to
//! a recompute, which `tests/suite_determinism.rs` checks end to end.
//! Writes go through a temp file (fsynced) + atomic rename so neither a
//! concurrent run nor a `kill -9` mid-write can ever leave a half-written
//! TLSNAP in place of a good one.

use crate::codec::{
    self, decode_container, encode_container, fingerprint_view, PairDigest, PairEncoder, Seal,
    SnapshotError, KIND_SIM_REPORT,
};
use crate::mapped::{MapOutcome, TraceView};
use crate::population::{Lease, Populations};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use tls_core::experiment::{serialize_view, BenchmarkPrograms};
use tls_core::{CmpConfig, CmpSimulator, Envelope, RunOptions, SimReport, SubThreadConfig};
use tls_minidb::{OptLevel, TpccConfig, Transaction};
use tls_trace::{ProgramView, TraceProgram, TraceStats};

/// Identifies one recorded benchmark: everything that influences the
/// recorded trace pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceKey {
    /// Workload scale, seed and engine options.
    pub cfg: TpccConfig,
    /// The transaction (benchmark) recorded.
    pub txn: Transaction,
    /// Back-to-back instances recorded.
    pub count: usize,
}

impl TraceKey {
    /// The cache-key fingerprint: the [`codec::seal`] of the canonical
    /// JSON of every field (the JSON encoding is deterministic, so the
    /// hash is stable across runs and platforms).
    pub fn hash(&self) -> u64 {
        let mut s = String::new();
        use serde::Serialize;
        self.cfg.serialize(&mut s);
        s.push('|');
        s.push_str(self.txn.trace_name());
        s.push('|');
        s.push_str(&self.count.to_string());
        codec::seal(s.as_bytes())
    }

    /// The snapshot file name: human-greppable benchmark name plus the
    /// full key fingerprint.
    pub fn file_name(&self) -> String {
        format!("{}-{:016x}.trace", self.txn.trace_name(), self.hash())
    }
}

/// Aggregate cache counters, reported into `BENCH_suite.json`.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Trace pairs served from the in-memory map.
    pub trace_mem_hits: AtomicU64,
    /// Trace pairs mapped from a disk snapshot.
    pub trace_disk_hits: AtomicU64,
    /// Trace pairs recorded from scratch.
    pub trace_records: AtomicU64,
    /// Reports served from memory.
    pub report_mem_hits: AtomicU64,
    /// Reports served from disk, decoded or as their JSON bytes.
    pub report_disk_hits: AtomicU64,
    /// Simulations actually executed.
    pub report_sims: AtomicU64,
    /// Undecodable snapshot files moved to `<dir>/quarantine/` (and then
    /// regenerated — each quarantine implies a record or sim above).
    pub snapshots_quarantined: AtomicU64,
    /// Buffer-pool frames evicted across every paged recording.
    pub pager_evictions: AtomicU64,
    /// Dirty pages written back to the simulated disk.
    pub pager_flushes: AtomicU64,
    /// Disk reads rejected (checksum/stale-LSN) and repaired from the
    /// logged image.
    pub pager_recovery_replays: AtomicU64,
    /// Pages recovery had to quarantine as corrupt beyond repair.
    pub pager_pages_quarantined: AtomicU64,
    /// TPC-C databases populated for recordings. Recordings of one scale
    /// and seed that overlap share one population.
    pub populations: AtomicU64,
    /// Cached report JSON decoded into a `SimReport`. The sweep splices
    /// cached bytes into its rows and decodes none.
    pub report_decodes: AtomicU64,
    /// Reports answered by a run of another sub-thread configuration
    /// whose envelope covers the request.
    pub envelope_hits: AtomicU64,
}

impl StoreStats {
    fn get(v: &AtomicU64) -> u64 {
        v.load(Ordering::Relaxed)
    }

    /// Snapshot of all fourteen counters, in declaration order.
    pub fn snapshot(&self) -> [u64; 14] {
        [
            Self::get(&self.trace_mem_hits),
            Self::get(&self.trace_disk_hits),
            Self::get(&self.trace_records),
            Self::get(&self.report_mem_hits),
            Self::get(&self.report_disk_hits),
            Self::get(&self.report_sims),
            Self::get(&self.snapshots_quarantined),
            Self::get(&self.pager_evictions),
            Self::get(&self.pager_flushes),
            Self::get(&self.pager_recovery_replays),
            Self::get(&self.pager_pages_quarantined),
            Self::get(&self.populations),
            Self::get(&self.report_decodes),
            Self::get(&self.envelope_hits),
        ]
    }

    /// Folds one paged recording's buffer-pool counters into the
    /// aggregate (quarantined pages are passed separately — they come
    /// from recovery runs, not the live counters).
    pub fn record_pager(&self, c: &tls_minidb::PagerCounters, pages_quarantined: u64) {
        self.pager_evictions.fetch_add(c.evictions, Ordering::Relaxed);
        self.pager_flushes.fetch_add(c.flushes, Ordering::Relaxed);
        self.pager_recovery_replays.fetch_add(c.recovery_replays, Ordering::Relaxed);
        self.pager_pages_quarantined.fetch_add(pages_quarantined, Ordering::Relaxed);
    }
}

/// Where a [`KeyedProgram`]'s ops live.
#[derive(Debug, Clone)]
enum ProgramRepr {
    /// An owned program, as recorded or built in memory.
    Owned(Arc<TraceProgram>),
    /// One side of a memory-mapped snapshot, as recorded or serialized:
    /// the ops are served in place from the page cache, never copied.
    Mapped {
        view: Arc<TraceView>,
        /// Which program of the pair (`true` = TLS-transformed).
        tls: bool,
        /// The serialized form (every region one sequential run).
        serialized: bool,
    },
}

/// A trace program bundled with its content fingerprint (the
/// [`codec`] module doc defines it) — backed either by an owned program or by a
/// memory-mapped snapshot (the representations are interchangeable;
/// every consumer goes through [`KeyedProgram::view`]).
///
/// Fingerprinting streams the entire (often multi-megabyte) program, so
/// it happens exactly once — when the program enters the store or is
/// wrapped by a plan — instead of on every report-cache lookup, which
/// previously re-encoded the full trace per [`HarnessStore::simulate`]
/// call just to derive its key. A mapped program's fingerprint is read
/// from its snapshot's sealed trailer; an owned one's is computed by
/// [`fingerprint_view`]. Cloning is cheap (both representations are
/// behind `Arc`s).
#[derive(Debug, Clone)]
pub struct KeyedProgram {
    repr: ProgramRepr,
    fingerprint: u64,
}

impl KeyedProgram {
    /// Wraps `program`, computing its content fingerprint.
    pub fn new(program: TraceProgram) -> Self {
        Self::from_arc(Arc::new(program))
    }

    /// Wraps an already-shared program, computing its content fingerprint.
    pub fn from_arc(program: Arc<TraceProgram>) -> Self {
        let fingerprint = fingerprint_view(&program.view());
        KeyedProgram { repr: ProgramRepr::Owned(program), fingerprint }
    }

    /// Wraps one side of a mapped snapshot, or (`serialized`) that
    /// side's serialized form. The fingerprints come from the snapshot's
    /// sealed trailer.
    fn from_mapped(view: Arc<TraceView>, tls: bool, serialized: bool) -> Self {
        let d = &view.digest;
        let fingerprint = match (tls, serialized) {
            (false, false) => d.plain,
            (true, false) => d.tls,
            (false, true) => d.plain_serialized,
            (true, true) => d.tls_serialized,
        };
        KeyedProgram { repr: ProgramRepr::Mapped { view, tls, serialized }, fingerprint }
    }

    /// The program's content fingerprint ([`fingerprint_view`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// A borrowed view of the program — the form the simulator executes.
    /// Free for both representations (slice borrows, no op copies).
    pub fn view(&self) -> ProgramView<'_> {
        match &self.repr {
            ProgramRepr::Owned(p) => p.view(),
            ProgramRepr::Mapped { view, tls, serialized: true } => view.serialized(*tls),
            ProgramRepr::Mapped { view, tls: true, .. } => view.tls(),
            ProgramRepr::Mapped { view, tls: false, .. } => view.plain(),
        }
    }

    /// The program's benchmark name.
    pub fn name(&self) -> &str {
        match &self.repr {
            ProgramRepr::Owned(p) => &p.name,
            ProgramRepr::Mapped { view, tls: true, .. } => view.tls_name(),
            ProgramRepr::Mapped { view, tls: false, .. } => view.plain_name(),
        }
    }

    /// Total dynamic instructions.
    pub fn total_ops(&self) -> usize {
        self.view().total_ops()
    }

    /// Static trace statistics (Table 2 quantities).
    pub fn stats(&self) -> TraceStats {
        self.view().stats()
    }

    /// `(epochs, ops)` attributed to `module` (see
    /// [`ProgramView::epochs_of_module`]).
    pub fn epochs_of_module(&self, module: u16) -> (u64, u64) {
        self.view().epochs_of_module(module)
    }
}

/// A benchmark's recorded `(plain, tls)` pair plus memoized derived
/// forms: the content fingerprints the report cache keys on, and the
/// serialized (every-region-sequential) variants that the SEQUENTIAL and
/// TLS-SEQ experiments execute — each computed once per store entry
/// instead of once per experiment dispatch.
#[derive(Debug)]
pub struct StoredPrograms {
    /// The unmodified execution (no TLS software transformations).
    pub plain: KeyedProgram,
    /// The TLS-transformed execution (parallel markers + overhead).
    pub tls: KeyedProgram,
    plain_serialized: OnceLock<KeyedProgram>,
    tls_serialized: OnceLock<KeyedProgram>,
}

impl StoredPrograms {
    /// Wraps a recorded pair, fingerprinting both programs.
    pub fn new(pair: BenchmarkPrograms) -> Self {
        StoredPrograms {
            plain: KeyedProgram::new(pair.plain),
            tls: KeyedProgram::new(pair.tls),
            plain_serialized: OnceLock::new(),
            tls_serialized: OnceLock::new(),
        }
    }

    /// Wraps a mapped snapshot: both programs are served in place from
    /// the shared map, zero op bytes copied.
    pub fn from_view(view: Arc<TraceView>) -> Self {
        StoredPrograms {
            plain: KeyedProgram::from_mapped(view.clone(), false, false),
            tls: KeyedProgram::from_mapped(view, true, false),
            plain_serialized: OnceLock::new(),
            tls_serialized: OnceLock::new(),
        }
    }

    /// The serialized variant (epochs concatenated onto one CPU) of the
    /// TLS or plain trace, made on first use. A mapped pair borrows it in
    /// place: a parallel region's epochs are consecutive in the op bank,
    /// so each serialized region is one slice of the mapping, and its
    /// fingerprint was computed when the snapshot was opened. An owned
    /// pair (in-memory stores, big-endian hosts) copies its ops into a
    /// new program and fingerprints that.
    pub fn serialized(&self, tls: bool) -> &KeyedProgram {
        let (cell, source) = if tls {
            (&self.tls_serialized, &self.tls)
        } else {
            (&self.plain_serialized, &self.plain)
        };
        cell.get_or_init(|| match &source.repr {
            ProgramRepr::Mapped { view, .. } => KeyedProgram::from_mapped(view.clone(), tls, true),
            ProgramRepr::Owned(p) => KeyedProgram::new(serialize_view(&p.view())),
        })
    }
}

/// A simulation report as the cache holds it: the report's canonical
/// compact JSON, which is the payload of its `.rpt` container and is
/// spliced verbatim into sweep rows, and its cycle count.
#[derive(Debug, Clone)]
pub struct ReportJson {
    /// `serde_json::to_string` of the report.
    pub json: String,
    /// The report's `total_cycles`.
    pub total_cycles: u64,
}

impl ReportJson {
    fn new(report: &SimReport) -> Self {
        let json = serde_json::to_string(report).expect("serialize report");
        ReportJson { json, total_cycles: report.total_cycles }
    }

    /// Accepts a cached payload without decoding it: `SimReport`
    /// serializes `name` and then `total_cycles` first, so the cycle
    /// count sits at a fixed place after the name string.
    fn from_payload(json: &str) -> Result<Self, SnapshotError> {
        let bad = || SnapshotError::BadJson("no leading name and total_cycles".into());
        let rest = json.strip_prefix("{\"name\":\"").ok_or_else(bad)?;
        // The name ends at the first quote that no backslash escapes.
        let mut escaped = false;
        let close = rest
            .bytes()
            .position(|b| {
                let end = b == b'"' && !escaped;
                escaped = b == b'\\' && !escaped;
                end
            })
            .ok_or_else(bad)?;
        let digits = rest[close + 1..].strip_prefix(",\"total_cycles\":").ok_or_else(bad)?;
        let n = digits.bytes().take_while(u8::is_ascii_digit).count();
        if digits.as_bytes().get(n) != Some(&b',') {
            return Err(bad());
        }
        let total_cycles = digits[..n].parse().map_err(|_| bad())?;
        Ok(ReportJson { json: json.to_string(), total_cycles })
    }
}

type Slot<T> = Arc<OnceLock<Arc<T>>>;

/// A simulated report filed with what its run read of its sub-thread
/// configuration.
struct Enveloped<T> {
    ran: SubThreadConfig,
    envelope: Envelope,
    report: T,
}

/// Reports by envelope class: the program and every machine parameter
/// but the sub-thread configuration ([`class_key`]).
type EnvelopeMemo<T> = Mutex<HashMap<u64, Vec<Enveloped<T>>>>;

/// The process-wide snapshot store. Thread-safe; per-key initialization
/// is serialized (two threads asking for the same uncached benchmark
/// record it once), distinct keys proceed in parallel.
pub struct HarnessStore {
    dir: Option<PathBuf>,
    sim_cache: bool,
    traces: Mutex<HashMap<u64, Slot<StoredPrograms>>>,
    reports: Mutex<HashMap<u64, Slot<SimReport>>>,
    /// The envelope memo of [`HarnessStore::simulate_keyed`].
    enveloped_reports: EnvelopeMemo<Arc<SimReport>>,
    /// The envelope memo of [`HarnessStore::report_json`].
    enveloped_json: EnvelopeMemo<ReportJson>,
    populations: Populations,
    /// Cache activity counters.
    pub stats: StoreStats,
}

impl HarnessStore {
    /// A store caching under `dir` (`None` = in-memory only).
    pub fn new(dir: Option<PathBuf>, sim_cache: bool) -> Self {
        HarnessStore {
            dir,
            sim_cache,
            traces: Mutex::new(HashMap::new()),
            reports: Mutex::new(HashMap::new()),
            enveloped_reports: Mutex::default(),
            enveloped_json: Mutex::default(),
            populations: Populations::default(),
            stats: StoreStats::default(),
        }
    }

    /// A store with no disk backing and no report memoization, by key or
    /// by envelope: every request records and simulates from scratch (the
    /// reference the determinism tests compare cached runs against).
    pub fn uncached() -> Self {
        HarnessStore::new(None, false)
    }

    /// The snapshot directory, if disk caching is enabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Where undecodable snapshots are set aside, if disk caching is
    /// enabled.
    pub fn quarantine_dir(&self) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join("quarantine"))
    }

    /// Self-healing path for an undecodable snapshot: the file is moved
    /// to `<dir>/quarantine/` with a `.reason.txt` beside it naming the
    /// decode failure, and the caller regenerates the data. Failure to
    /// quarantine (e.g. a read-only tree) falls back to leaving the file
    /// for the rewrite to replace — the store must heal, never abort.
    fn quarantine(&self, path: &Path, err: &SnapshotError) {
        self.stats.snapshots_quarantined.fetch_add(1, Ordering::Relaxed);
        let Some(qdir) = self.quarantine_dir() else { return };
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n.to_string(),
            None => return,
        };
        if let Err(e) = std::fs::create_dir_all(&qdir) {
            eprintln!("warning: cannot create {}: {e}", qdir.display());
            return;
        }
        let dest = qdir.join(&name);
        if let Err(e) = std::fs::rename(path, &dest) {
            eprintln!("warning: cannot quarantine {}: {e}", path.display());
            return;
        }
        let reason = format!(
            "file: {name}\ncode: {}\nreason: {err}\naction: regenerated transparently\n",
            err.code()
        );
        write_bytes_atomic(&qdir.join(format!("{name}.reason.txt")), reason.as_bytes());
        eprintln!("warning: quarantined snapshot {} ({err}); regenerating", dest.display());
    }

    /// A lease on the populated database of `cfg`'s scale and seed,
    /// shared with every other recording of them in flight.
    pub(crate) fn population(&self, cfg: &TpccConfig) -> Lease<'_> {
        self.populations.lease(cfg, &self.stats.populations)
    }

    fn slot<T>(map: &Mutex<HashMap<u64, Slot<T>>>, key: u64) -> Slot<T> {
        map.lock().expect("store map poisoned").entry(key).or_default().clone()
    }

    /// The recorded `(plain, tls)` pair for `key`: from memory, else
    /// served in place from a memory-mapped disk snapshot, else recorded
    /// (and persisted in the mappable format).
    ///
    /// A corrupt snapshot, or one in a retired format version, is
    /// quarantined and re-recorded. A big-endian host, which cannot map
    /// the little-endian records, leaves snapshots alone and records.
    pub fn programs(&self, key: &TraceKey) -> Arc<StoredPrograms> {
        let hash = key.hash();
        let slot = Self::slot(&self.traces, hash);
        if let Some(hit) = slot.get() {
            self.stats.trace_mem_hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        slot.get_or_init(|| {
            let path = (self.dir.as_ref())
                .filter(|_| cfg!(target_endian = "little"))
                .map(|d| d.join(key.file_name()));
            if let Some(path) = &path {
                match TraceView::open(path, hash) {
                    MapOutcome::Mapped(view) => {
                        self.stats.trace_disk_hits.fetch_add(1, Ordering::Relaxed);
                        return Arc::new(StoredPrograms::from_view(Arc::new(*view)));
                    }
                    MapOutcome::Bad(e) => self.quarantine(path, &e),
                    MapOutcome::Io(e) => {
                        eprintln!("warning: cannot read {}: {e}", path.display());
                    }
                    MapOutcome::Missing => {}
                }
            }
            self.stats.trace_records.fetch_add(1, Ordering::Relaxed);
            // The lease lives until the pair is stored, so a worker that
            // moves on to its next miss finds the image still resident.
            let population = self.population(&key.cfg);
            let plain = population.fork(OptLevel::none()).record_plain(key.txn, key.count);
            let tls = population.fork(key.cfg.opts).record(key.txn, key.count);
            let pair = BenchmarkPrograms { plain, tls };
            Arc::new(match &path {
                Some(path) => persist(path, hash, pair),
                None => StoredPrograms::new(pair),
            })
        })
        .clone()
    }

    /// Runs `program` on the machine `cfg`, memoizing by content: the key
    /// combines the program's memoized content fingerprint with the full
    /// machine configuration. A miss is answered without simulating when
    /// a run of another sub-thread configuration covers `cfg`.
    pub fn simulate(&self, program: &KeyedProgram, cfg: &CmpConfig) -> Arc<SimReport> {
        if !self.sim_cache {
            return Arc::new(self.run(program, cfg).0);
        }
        let mut cfg_json = String::new();
        {
            use serde::Serialize;
            cfg.serialize(&mut cfg_json);
        }
        self.simulate_keyed(program, cfg, &cfg_json)
    }

    /// As [`HarnessStore::simulate`], with the machine configuration's
    /// canonical JSON supplied by the caller — the sweep engine interns
    /// each grid point's JSON once and reuses it across every seed,
    /// instead of re-serializing the config per simulation. The cache key
    /// streams through the [`Seal`] (no intermediate key buffer).
    pub fn simulate_keyed(
        &self,
        program: &KeyedProgram,
        cfg: &CmpConfig,
        cfg_json: &str,
    ) -> Arc<SimReport> {
        if !self.sim_cache {
            return Arc::new(self.run(program, cfg).0);
        }
        let hash = report_key(program, cfg_json);
        let slot = Self::slot(&self.reports, hash);
        if let Some(hit) = slot.get() {
            self.stats.report_mem_hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        slot.get_or_init(|| {
            let path = self.report_path(hash);
            let decode = |json: &str| {
                self.stats.report_decodes.fetch_add(1, Ordering::Relaxed);
                serde_json::from_str(json).map_err(|e| SnapshotError::BadJson(e.to_string()))
            };
            if let Some(report) = path.as_deref().and_then(|p| self.read_report(p, hash, decode)) {
                return Arc::new(report);
            }
            let class = class_key(program, cfg);
            let report = match self.covered(&self.enveloped_reports, class, cfg) {
                Some(report) => report,
                None => {
                    let (report, envelope) = self.run(program, cfg);
                    let report = Arc::new(report);
                    file(&self.enveloped_reports, class, cfg, envelope, &report);
                    report
                }
            };
            if let Some(path) = &path {
                write_report(
                    path,
                    hash,
                    &serde_json::to_string(&*report).expect("serialize report"),
                );
            }
            report
        })
        .clone()
    }

    /// The report of `program` on `cfg` as its canonical JSON bytes, for
    /// splicing into a row: a cached report is read and checked against
    /// its container's seal but never decoded, and a fresh one is
    /// serialized once, for both the cache file and the caller. Nothing
    /// is memoized by key: a sweep asks for each point once and needs the
    /// bytes only until its row is rendered. A miss is answered from the
    /// envelope memo when a run of another sub-thread configuration
    /// covers `cfg`.
    pub fn report_json(
        &self,
        program: &KeyedProgram,
        cfg: &CmpConfig,
        cfg_json: &str,
    ) -> ReportJson {
        let hash = report_key(program, cfg_json);
        let path = self.report_path(hash).filter(|_| self.sim_cache);
        if let Some(report) =
            path.as_deref().and_then(|p| self.read_report(p, hash, ReportJson::from_payload))
        {
            return report;
        }
        let report = if self.sim_cache {
            let class = class_key(program, cfg);
            self.covered(&self.enveloped_json, class, cfg).unwrap_or_else(|| {
                let (report, envelope) = self.run(program, cfg);
                let report = ReportJson::new(&report);
                file(&self.enveloped_json, class, cfg, envelope, &report);
                report
            })
        } else {
            ReportJson::new(&self.run(program, cfg).0)
        };
        if let Some(path) = &path {
            write_report(path, hash, &report.json);
        }
        report
    }

    /// Simulates `program` on `cfg`, uncached.
    fn run(&self, program: &KeyedProgram, cfg: &CmpConfig) -> (SimReport, Envelope) {
        self.stats.report_sims.fetch_add(1, Ordering::Relaxed);
        CmpSimulator::new(*cfg).run_envelope(&program.view(), RunOptions::checked_default())
    }

    /// A report of `class` whose run's envelope covers `cfg`, if one is
    /// filed. `cfg` is validated first, so an invalid configuration
    /// panics here as it would in the simulator.
    fn covered<T: Clone>(&self, memo: &EnvelopeMemo<T>, class: u64, cfg: &CmpConfig) -> Option<T> {
        cfg.validate();
        let memo = memo.lock().expect("envelope memo poisoned");
        let hit = memo.get(&class)?.iter().find(|e| e.envelope.covers(&e.ran, &cfg.subthreads))?;
        self.stats.envelope_hits.fetch_add(1, Ordering::Relaxed);
        Some(hit.report.clone())
    }

    /// Where report `hash` is cached, if the store has a directory.
    fn report_path(&self, hash: u64) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join("reports").join(format!("{hash:016x}.rpt")))
    }

    /// The cached report at `path` as `accept` reads its JSON payload,
    /// or `None` on a miss. A file whose container, UTF-8 or JSON does
    /// not check out is quarantined, so the caller regenerates it.
    fn read_report<T>(
        &self,
        path: &Path,
        hash: u64,
        accept: impl FnOnce(&str) -> Result<T, SnapshotError>,
    ) -> Option<T> {
        let bytes = std::fs::read(path).ok()?;
        let read = decode_container(&bytes, KIND_SIM_REPORT, hash).and_then(|payload| {
            accept(std::str::from_utf8(payload).map_err(|_| SnapshotError::BadUtf8)?)
        });
        match read {
            Ok(report) => {
                self.stats.report_disk_hits.fetch_add(1, Ordering::Relaxed);
                Some(report)
            }
            Err(e) => {
                self.quarantine(path, &e);
                None
            }
        }
    }
}

/// The version of `SimReport`'s serialized form. Rows splice cached
/// report bytes without decoding them, so a cached report must never
/// outlive its schema: any change to the fields (or their order) of
/// `SimReport` or of a type inside it bumps this, which moves every
/// report to a new key. `report_schema_is_pinned` fails until it does.
const REPORT_SCHEMA: u32 = 1;

/// The report-cache key: the report schema, the program's content
/// fingerprint and the machine configuration's canonical JSON.
fn report_key(program: &KeyedProgram, cfg_json: &str) -> u64 {
    let mut key = Seal::new();
    key.update(&REPORT_SCHEMA.to_le_bytes());
    key.update(&program.fingerprint().to_le_bytes());
    key.update(cfg_json.as_bytes());
    key.finish()
}

/// The envelope class of `program` on `cfg`: the report key of `cfg`
/// with its sub-thread configuration replaced by one fixed value.
fn class_key(program: &KeyedProgram, cfg: &CmpConfig) -> u64 {
    let mut class = *cfg;
    class.subthreads = SubThreadConfig::baseline();
    let mut json = String::new();
    {
        use serde::Serialize;
        class.serialize(&mut json);
    }
    report_key(program, &json)
}

/// Files `report`, simulated on `cfg`, in `memo` under `class`, unless
/// its envelope covers only `cfg` itself, which the key layers serve.
fn file<T: Clone>(
    memo: &EnvelopeMemo<T>,
    class: u64,
    cfg: &CmpConfig,
    envelope: Envelope,
    report: &T,
) {
    if envelope.is_exact(&cfg.subthreads) {
        return;
    }
    let entry = Enveloped { ran: cfg.subthreads, envelope, report: report.clone() };
    memo.lock().expect("envelope memo poisoned").entry(class).or_default().push(entry);
}

fn write_report(path: &Path, hash: u64, json: &str) {
    write_bytes_atomic(path, &encode_container(KIND_SIM_REPORT, hash, json.as_bytes()));
}

/// Streams a freshly recorded `pair` into its snapshot at `path`, and
/// serves that file in place: the recording already cost seconds, and
/// mapping frees the owned copy for the rest of the run. The write is one
/// walk that hashes as it goes ([`PairEncoder`]), and the map is checked
/// by comparing its bytes with the pair rather than by hashing the file
/// again. If the file cannot be written, or does not hold exactly what
/// was written, the owned pair is served instead.
fn persist(path: &Path, hash: u64, pair: BenchmarkPrograms) -> StoredPrograms {
    let view = {
        let encoder = PairEncoder::new(hash, pair.plain.view(), pair.tls.view());
        write_pair(path, &encoder)
            .and_then(|digest| TraceView::open_written(path, &encoder, digest))
    };
    match view {
        Some(view) => StoredPrograms::from_view(Arc::new(view)),
        None => StoredPrograms::new(pair),
    }
}

/// [`write_atomic`] of `encoder`'s snapshot; returns its digest.
fn write_pair(path: &Path, encoder: &PairEncoder<'_>) -> Option<PairDigest> {
    write_atomic(path, |file| {
        let mut out = BufWriter::with_capacity(codec::WRITE_CHUNK, file);
        let digest = encoder.write_to(&mut out)?;
        out.flush()?;
        Ok(digest)
    })
}

/// [`write_atomic`] of a byte slice.
fn write_bytes_atomic(path: &Path, bytes: &[u8]) {
    write_atomic(path, |file| file.write_all(bytes));
}

/// Writes the file at `path` through `fill` via a unique temp file, an
/// fsync, and an atomic rename, creating parent directories, and returns
/// what `fill` returned once the file is in place. A crash or `kill -9`
/// at any point leaves either the old file or the complete new one —
/// never a torn TLSNAP — and the fsync-before-rename ensures the renamed
/// file has its contents on disk, not just its directory entry. Failures
/// warn, return `None` and leave the cache cold — the snapshot store is
/// an accelerator, never a correctness dependency.
fn write_atomic<T>(path: &Path, fill: impl FnOnce(&mut File) -> io::Result<T>) -> Option<T> {
    let parent = path.parent()?;
    if let Err(e) = std::fs::create_dir_all(parent) {
        eprintln!("warning: cannot create {}: {e}", parent.display());
        return None;
    }
    // Unique per write, so two writers of one key in this process (a
    // grid that repeats a point) never share a temp file.
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let tmp = parent.join(format!(
        ".{}.tmp-{}-{}",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("snapshot"),
        std::process::id(),
        WRITES.fetch_add(1, Ordering::Relaxed)
    ));
    let synced = File::create(&tmp).and_then(|mut f| {
        let value = fill(&mut f)?;
        f.sync_all()?;
        Ok(value)
    });
    let value = match synced {
        Ok(value) => value,
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", tmp.display());
            let _ = std::fs::remove_file(&tmp);
            return None;
        }
    };
    if let Err(e) = std::fs::rename(&tmp, path) {
        eprintln!("warning: cannot publish {}: {e}", path.display());
        let _ = std::fs::remove_file(&tmp);
        return None;
    }
    // Persist the directory entry too (best-effort; not all platforms
    // allow opening a directory for sync).
    if let Ok(d) = File::open(parent) {
        let _ = d.sync_all();
    }
    Some(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Scale;
    use tls_minidb::Tpcc;

    fn key() -> TraceKey {
        TraceKey { cfg: Scale::Test.tpcc(), txn: Transaction::Payment, count: 1 }
    }

    #[test]
    fn key_hash_is_stable_and_sensitive() {
        let k = key();
        assert_eq!(k.hash(), k.hash());
        let mut other = key();
        other.count = 2;
        assert_ne!(k.hash(), other.hash());
        let mut reseeded = key();
        reseeded.cfg.seed ^= 1;
        assert_ne!(k.hash(), reseeded.hash());
    }

    #[test]
    fn memory_store_records_once() {
        let store = HarnessStore::new(None, true);
        let a = store.programs(&key());
        let b = store.programs(&key());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.stats.snapshot()[2], 1, "one record");
        assert_eq!(store.stats.snapshot()[0], 1, "one memory hit");
    }

    #[test]
    fn disk_snapshot_round_trips_through_a_second_store() {
        let dir = std::env::temp_dir().join(format!("tls-harness-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = HarnessStore::new(Some(dir.clone()), true);
        let a = cold.programs(&key());
        assert_eq!(cold.stats.snapshot()[2], 1);
        let warm = HarnessStore::new(Some(dir.clone()), true);
        let b = warm.programs(&key());
        assert_eq!(warm.stats.snapshot()[1], 1, "served from disk");
        assert_eq!(warm.stats.snapshot()[2], 0, "no re-record");
        assert_eq!(a.tls.total_ops(), b.tls.total_ops());
        assert_eq!(a.tls.fingerprint(), b.tls.fingerprint(), "same content fingerprint");
        assert!(
            a.tls.view().to_program() == b.tls.view().to_program(),
            "decoded trace is bit-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_quarantined_and_regenerated() {
        let dir = std::env::temp_dir().join(format!("tls-harness-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = HarnessStore::new(Some(dir.clone()), true);
        cold.programs(&key());
        let path = dir.join(key().file_name());
        let mut bytes = std::fs::read(&path).expect("snapshot written");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("rewrite");
        let warm = HarnessStore::new(Some(dir.clone()), true);
        let b = warm.programs(&key());
        assert_eq!(warm.stats.snapshot()[2], 1, "re-recorded after corruption");
        assert_eq!(warm.stats.snapshot()[6], 1, "corruption was quarantined");
        assert!(b.tls.total_ops() > 0);

        // The corrupt bytes were set aside with a reason file, and the
        // snapshot in place is the regenerated (decodable) one.
        let qdir = warm.quarantine_dir().expect("disk-backed store");
        let qfile = qdir.join(key().file_name());
        assert_eq!(std::fs::read(&qfile).expect("quarantined bytes"), bytes);
        let reason_path = qdir.join(format!("{}.reason.txt", key().file_name()));
        let reason = std::fs::read_to_string(&reason_path).expect("reason file");
        assert!(reason.contains("code: checksum-mismatch"), "{reason}");
        let healed = std::fs::read(&path).expect("regenerated snapshot");
        assert!(matches!(TraceView::open(&path, key().hash()), MapOutcome::Mapped(_)));

        // A third store sees only the healed snapshot: no re-record, no
        // new quarantine.
        let again = HarnessStore::new(Some(dir.clone()), true);
        again.programs(&key());
        assert_eq!(again.stats.snapshot()[1], 1, "healed snapshot served from disk");
        assert_eq!(again.stats.snapshot()[6], 0, "nothing left to quarantine");

        // A container stamped with a retired version, sealed as that
        // version sealed it (FNV-1a for versions 1 and 2, the seal of
        // today for version 3, whose trailer held FNV-1a fingerprints), is
        // not decoded: it is quarantined as a version mismatch and
        // recorded afresh, and the rewritten snapshot maps in place.
        for (retired, sealed_with) in
            [(1, codec::fnv1a as fn(&[u8]) -> u64), (2, codec::fnv1a), (3, codec::seal)]
        {
            let mut old = healed.clone();
            old[7] = retired;
            let body_end = old.len() - codec::CHECKSUM_LEN;
            let sum = sealed_with(&old[..body_end]);
            old[body_end..].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&path, &old).expect("rewrite");
            let upgraded = HarnessStore::new(Some(dir.clone()), true);
            upgraded.programs(&key());
            let stats = upgraded.stats.snapshot();
            assert_eq!(stats[6], 1, "version {retired} quarantined");
            assert_eq!(stats[2], 1, "re-recorded after version {retired}");
            assert_eq!(std::fs::read(&qfile).expect("quarantined bytes"), old);
            let reason = std::fs::read_to_string(&reason_path).expect("reason file");
            assert!(reason.contains("code: version-mismatch"), "{reason}");
            assert!(matches!(TraceView::open(&path, key().hash()), MapOutcome::Mapped(_)));
            assert_eq!(std::fs::read(&path).expect("rewritten"), healed, "version {retired}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_miss_serves_the_file_it_wrote_unless_the_file_was_swapped() {
        let dir = std::env::temp_dir().join(format!("tls-harness-fresh-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (key, hash) = (key(), key().hash());
        let path = dir.join(key.file_name());
        let store = HarnessStore::new(Some(dir.clone()), true);
        let fresh = store.programs(&key);
        let ProgramRepr::Mapped { view, .. } = &fresh.tls.repr else {
            panic!("a miss serves the snapshot it wrote");
        };
        let MapOutcome::Mapped(reopened) = TraceView::open(&path, hash) else {
            panic!("the written snapshot opens");
        };
        assert_eq!(view.digest, reopened.digest, "the streamed digest is the file's");

        let record = || {
            let (plain, tls) = Tpcc::record_pair(&key.cfg, key.txn, key.count);
            BenchmarkPrograms { plain, tls }
        };
        let want = {
            let pair = StoredPrograms::new(record());
            [pair.plain.fingerprint(), pair.tls.fingerprint(), pair.serialized(true).fingerprint()]
        };
        assert_eq!(
            want,
            [fresh.plain.fingerprint(), fresh.tls.fingerprint(), view.digest.tls_serialized]
        );
        // Another valid snapshot under the same key (it would pass a
        // re-hash), a flipped op byte, a truncation, and no file at all.
        let (other_plain, other_tls) = Tpcc::record_pair(&key.cfg, key.txn, key.count + 1);
        let other = codec::encode_pair_file(
            hash,
            &BenchmarkPrograms { plain: other_plain, tls: other_tls },
        );
        let good = std::fs::read(&path).expect("snapshot");
        let mut flipped = good.clone();
        let at = good.len() - codec::CHECKSUM_LEN - 3;
        flipped[at] ^= 0x10;
        let swaps: [(&str, Option<Vec<u8>>); 4] = [
            ("another pair", Some(other)),
            ("a flipped byte", Some(flipped)),
            ("a truncation", Some(good[..good.len() / 2].to_vec())),
            ("a removed file", None),
        ];
        // `persist`'s steps, with the file swapped between write and map:
        // the map is refused, so `persist` serves the owned pair.
        let pair = record();
        let encoder = PairEncoder::new(hash, pair.plain.view(), pair.tls.view());
        for (what, swap) in swaps {
            let digest = write_pair(&path, &encoder).expect("snapshot written");
            match &swap {
                Some(bytes) => std::fs::write(&path, bytes).expect("swap the snapshot"),
                None => std::fs::remove_file(&path).expect("remove the snapshot"),
            }
            assert!(TraceView::open_written(&path, &encoder, digest).is_none(), "{what}: refused");
        }
        assert_eq!(std::fs::read(&path).ok(), None, "the last swap removed the file");
        let served = persist(&path, hash, record());
        assert!(matches!(served.tls.repr, ProgramRepr::Mapped { .. }), "an intact write is served");
        let got = [
            served.plain.fingerprint(),
            served.tls.fingerprint(),
            served.serialized(true).fingerprint(),
        ];
        assert_eq!(got, want, "fingerprints");
        // A snapshot that cannot be written (its parent is a file) is
        // served from the owned pair.
        let unwritable = path.join(key.file_name());
        let served = persist(&unwritable, hash, record());
        assert!(matches!(served.tls.repr, ProgramRepr::Owned(_)), "owned fallback");
        assert!(matches!(served.plain.repr, ProgramRepr::Owned(_)), "owned fallback");
        let got = [
            served.plain.fingerprint(),
            served.tls.fingerprint(),
            served.serialized(true).fingerprint(),
        ];
        assert_eq!(got, want, "owned fingerprints");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serialized_programs_are_borrowed_from_disk_and_match_memory() {
        use tls_core::experiment::ExperimentKind;
        let dir = std::env::temp_dir().join(format!("tls-harness-serial-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = HarnessStore::new(Some(dir.clone()), false);
        let memory = HarnessStore::new(None, false);
        let (mapped, owned) = (disk.programs(&key()), memory.programs(&key()));
        let machine = crate::eval::paper_machine();
        for kind in [ExperimentKind::Sequential, ExperimentKind::TlsSeq] {
            let tls = kind.uses_tls_trace();
            let (m, o) = (mapped.serialized(tls), owned.serialized(tls));
            assert!(matches!(m.repr, ProgramRepr::Mapped { serialized: true, .. }), "{kind:?}");
            assert!(matches!(o.repr, ProgramRepr::Owned(_)), "{kind:?}");
            assert_eq!(m.fingerprint(), o.fingerprint(), "{kind:?} fingerprint");
            assert_eq!(m.fingerprint(), fingerprint_view(&m.view()), "{kind:?} fingerprint");
            let cfg = kind.configure(&machine);
            let (a, b) = (disk.simulate(m, &cfg), memory.simulate(o, &cfg));
            assert_eq!(
                serde_json::to_string(&*a).expect("report json"),
                serde_json::to_string(&*b).expect("report json"),
                "{kind:?} report"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_cycles_are_read_after_any_name() {
        let read = |json: &str| ReportJson::from_payload(json).map(|r| r.total_cycles);
        assert_eq!(read(r#"{"name":"a\"b\\","total_cycles":42,"cpus":4}"#).ok(), Some(42));
        assert_eq!(read(r#"{"name":"\\\\","total_cycles":0,"cpus":4}"#).ok(), Some(0));
        for bad in [
            r#"{"total_cycles":42,"cpus":4}"#,
            r#"{"name":"x\","total_cycles":42,"cpus":4}"#,
            r#"{"name":"x","total_cycles":-1,"cpus":4}"#,
            r#"{"name":"x","total_cycles":42}"#,
            r#"{"name":"x","cpus":4,"total_cycles":42,"l1":0}"#,
        ] {
            assert!(read(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn report_json_splices_sealed_bytes_and_heals_bad_files() {
        let dir = std::env::temp_dir().join(format!("tls-harness-rjson-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = crate::eval::paper_machine();
        let cfg_json = serde_json::to_string(&cfg).expect("config json");
        let cold = HarnessStore::new(Some(dir.clone()), true);
        let fresh = cold.report_json(&cold.programs(&key()).tls, &cfg, &cfg_json);
        let decoded = cold.simulate_keyed(&cold.programs(&key()).tls, &cfg, &cfg_json);
        assert_eq!(fresh.json, serde_json::to_string(&*decoded).expect("report json"));
        assert_eq!(fresh.total_cycles, decoded.total_cycles);
        let stats = cold.stats.snapshot();
        assert_eq!((stats[5], stats[4], stats[12]), (1, 1, 1), "one sim, then one decoded read");

        let path = std::fs::read_dir(dir.join("reports"))
            .expect("reports written")
            .map(|e| e.expect("entry").path())
            .find(|p| p.extension().is_some_and(|x| x == "rpt"))
            .expect("one report file");
        let hash = u64::from_str_radix(path.file_stem().unwrap().to_str().unwrap(), 16).unwrap();
        let good = std::fs::read(&path).expect("report file");
        let mut torn = good.clone();
        torn[30] ^= 0x20;
        let unsplicable = encode_container(KIND_SIM_REPORT, hash, br#"{"total_cycles":1}"#);
        // The good report as builds before version 4 wrote it: stamped
        // version 3 and sealed as today (under a key built from FNV-1a
        // fingerprints, which this file's name stands in for).
        let mut retired = good.clone();
        retired[7] = 3;
        let body_end = retired.len() - codec::CHECKSUM_LEN;
        let sum = codec::seal(&retired[..body_end]);
        retired[body_end..].copy_from_slice(&sum.to_le_bytes());
        for (bytes, code) in
            [(torn, "checksum-mismatch"), (unsplicable, "bad-json"), (retired, "version-mismatch")]
        {
            std::fs::write(&path, &bytes).expect("damage report");
            let warm = HarnessStore::new(Some(dir.clone()), true);
            let healed = warm.report_json(&warm.programs(&key()).tls, &cfg, &cfg_json);
            assert_eq!(healed.json, fresh.json, "{code}: regenerated report");
            let stats = warm.stats.snapshot();
            assert_eq!((stats[6], stats[5], stats[12]), (1, 1, 0), "{code}: quarantined, re-run");
            let reason = std::fs::read_to_string(
                dir.join("quarantine").join(format!("{hash:016x}.rpt.reason.txt")),
            )
            .expect("reason file");
            assert!(reason.contains(code), "{reason}");
            assert_eq!(std::fs::read(&path).expect("rewritten"), good, "{code}: healed in place");
        }
        let warm = HarnessStore::new(Some(dir.clone()), true);
        let spliced = warm.report_json(&warm.programs(&key()).tls, &cfg, &cfg_json);
        assert_eq!(spliced.json, fresh.json);
        let stats = warm.stats.snapshot();
        assert_eq!((stats[4], stats[5], stats[12]), (1, 0, 0), "read, not simulated or decoded");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The field names of `v`, nested objects and the first element of
    /// each array included, in serialization order. (A healthy run has
    /// no protocol errors or livelocks, so their element types are not
    /// in the pinned shape.)
    fn skeleton(v: &serde::Value, out: &mut String) {
        match v {
            serde::Value::Object(pairs) => {
                out.push('{');
                for (k, v) in pairs {
                    out.push_str(k);
                    skeleton(v, out);
                    out.push(',');
                }
                out.push('}');
            }
            serde::Value::Array(items) => {
                out.push('[');
                if let Some(first) = items.first() {
                    skeleton(first, out);
                }
                out.push(']');
            }
            _ => {}
        }
    }

    #[test]
    fn report_schema_is_pinned() {
        let store = HarnessStore::uncached();
        let txn = Transaction::NewOrder;
        let count = crate::eval::instances(txn, Scale::Test);
        let programs = store.programs(&TraceKey { cfg: Scale::Test.tpcc(), txn, count });
        let report = store.simulate(&programs.tls, &crate::eval::paper_machine());
        assert!(!report.profile.is_empty(), "the pinned report shows a profile entry");
        let json = serde_json::to_string(&*report).expect("serialize report");
        let mut shape = String::new();
        skeleton(&serde::parse(&json).expect("report parses"), &mut shape);
        assert_eq!(
            (REPORT_SCHEMA, shape.as_str()),
            (
                1,
                concat!(
                    "{name,total_cycles,cpus,",
                    "breakdown{busy,cache_miss,latch,sync,drain_stall,idle,failed,},",
                    "violations{primary,secondary,overflow,},committed_epochs,",
                    "subthreads_started,subthread_merges,scan_epochs,scan_epoch_ops,",
                    "dispatched_ops,program_ops,",
                    "l1{accesses,hits,evictions,invalidations,},",
                    "l2{accesses,hits,evictions,invalidations,},",
                    "victim{accesses,hits,evictions,invalidations,},mem_accesses,",
                    "core{dispatched,retired,branches,mispredicts,loads,stores,flushes,",
                    "icache_misses,},latch_acquisitions,predictor_synchronizations,",
                    "predicted_hits,value_mispredicts,buffered_stores,forwarded_loads,",
                    "store_drains,serializability_breaches,",
                    "profile[{load_pc,store_pc,failed_cycles,violations,}],",
                    "faults{spurious_primary,spurious_secondary,victim_squeeze,forced_merge,",
                    "delayed_token,latch_hazard,stuck_drain,reordered_drain,dropped_entry,",
                    "skipped,protocol_errors,},protocol_errors[],audit_failures[],livelocks[],}",
                )
            ),
            "SimReport's serialized form changed: bump REPORT_SCHEMA and pin the new shape"
        );
    }

    #[test]
    fn simulation_cache_is_transparent() {
        let cached = HarnessStore::new(None, true);
        let raw = HarnessStore::uncached();
        let pair = cached.programs(&key());
        let cfg = crate::eval::paper_machine();
        let a = cached.simulate(&pair.tls, &cfg);
        let b = cached.simulate(&pair.tls, &cfg);
        assert!(Arc::ptr_eq(&a, &b), "second simulate is a memo hit");
        let c = raw.simulate(&pair.tls, &cfg);
        assert_eq!(a.total_cycles, c.total_cycles);
        assert_eq!(a.breakdown, c.breakdown);
        assert_eq!(a.violations, c.violations);
    }
}
