//! The recorded execution environment.
//!
//! [`Env`] pairs the simulated memory with a [`Recorder`]: every accessor
//! both performs the real operation on [`SimMemory`] *and* emits the
//! corresponding [`TraceOp`]s. The database engine is written exclusively
//! against `Env`, so the recorded trace is exactly what the engine did.

use crate::pager::Pager;
use crate::SimMemory;
use tls_trace::{latency, Addr, LatchId, OpSink, Pc, ProgramBuilder, TraceOp, TraceProgram};

/// Records the executing transaction into a [`TraceProgram`].
///
/// Two axes of state:
///
/// * **on/off** — the initial database load runs with recording off;
/// * **TLS mode** — with `tls = false` the parallel-region markers are
///   ignored (the SEQUENTIAL trace); with `tls = true` marked loops
///   become parallel regions and each epoch is prefixed with thread-spawn
///   overhead instructions (the TLS software transformation the paper's
///   TLS-SEQ bar measures).
#[derive(Debug, Default)]
pub struct Recorder {
    builder: Option<ProgramBuilder>,
    tls: bool,
    /// Nesting guard: `begin_parallel` inside a parallel region is a
    /// workload bug.
    in_parallel: bool,
    in_epoch: bool,
}

/// Instructions charged per speculative-thread spawn (register setup,
/// thread-management calls) when recording in TLS mode.
pub const SPAWN_OVERHEAD_OPS: usize = 40;

impl Recorder {
    /// A recorder that is off.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Starts recording a program named `name`; `tls` selects TLS mode.
    ///
    /// # Panics
    ///
    /// Panics if already recording.
    pub fn start(&mut self, name: &str, tls: bool) {
        assert!(self.builder.is_none(), "recorder already running");
        self.builder = Some(ProgramBuilder::new(name));
        self.tls = tls;
        self.in_parallel = false;
        self.in_epoch = false;
    }

    /// Whether ops are being recorded.
    pub fn recording(&self) -> bool {
        self.builder.is_some()
    }

    /// Whether the TLS software transformation is active.
    pub fn tls(&self) -> bool {
        self.tls && self.recording()
    }

    /// Finishes and returns the recorded program.
    ///
    /// # Panics
    ///
    /// Panics if not recording or inside an unclosed parallel region.
    pub fn finish(&mut self) -> TraceProgram {
        assert!(!self.in_parallel, "finish inside a parallel region");
        self.builder.take().expect("recorder not running").finish()
    }

    /// Marks the start of a parallelized loop (no-op unless TLS mode).
    pub fn begin_parallel(&mut self) {
        assert!(!self.in_parallel, "nested parallel regions are not supported");
        self.in_parallel = true;
        if self.tls() {
            self.builder.as_mut().expect("recording").begin_parallel();
        }
    }

    /// Marks the start of one loop iteration (an epoch in TLS mode).
    pub fn begin_epoch(&mut self, spawn_pc: Pc) {
        assert!(self.in_parallel && !self.in_epoch, "begin_epoch outside a parallel region");
        self.in_epoch = true;
        if self.tls() {
            let b = self.builder.as_mut().expect("recording");
            b.begin_epoch();
            // Thread-spawn overhead: the software cost of TLS.
            b.int_ops(spawn_pc, SPAWN_OVERHEAD_OPS);
        }
    }

    /// Ends the current iteration.
    pub fn end_epoch(&mut self) {
        assert!(self.in_epoch, "end_epoch without begin_epoch");
        self.in_epoch = false;
        if self.tls() {
            self.builder.as_mut().expect("recording").end_epoch();
        }
    }

    /// Ends the parallelized loop.
    pub fn end_parallel(&mut self) {
        assert!(self.in_parallel && !self.in_epoch, "end_parallel with an open epoch");
        self.in_parallel = false;
        if self.tls() {
            self.builder.as_mut().expect("recording").end_parallel();
        }
    }
}

impl OpSink for Recorder {
    fn emit(&mut self, op: TraceOp) {
        if let Some(b) = self.builder.as_mut() {
            b.emit(op);
        }
    }
}

/// The execution environment: simulated memory + trace recorder.
///
/// The accessors perform the access for real and emit the matching trace
/// op. Loads additionally emit a short dependent-use pattern so the core
/// model sees realistic dependence chains (a pointer-chasing B-tree
/// descent really serializes on its loads).
#[derive(Debug, Default)]
pub struct Env {
    /// The simulated memory image.
    pub mem: SimMemory,
    /// The trace recorder.
    pub rec: Recorder,
    /// The attached buffer pool, if any. `None` (direct mode) emits
    /// zero extra ops, so existing traces stay byte-identical.
    pager: Option<Box<Pager>>,
    /// Every page ever allocated, in allocation order — maintained
    /// host-side from the start so a pager can be attached at any point.
    page_registry: Vec<Addr>,
}

impl Env {
    /// A fresh environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// A copy of the memory image and the page registry, with an idle
    /// recorder and no pager: what a loaded database is forked from, so
    /// that it is loaded once and recorded more than once.
    ///
    /// # Panics
    ///
    /// Panics if a pager is attached or a recording is running: neither
    /// the pager's frames and disk nor a half-recorded program belong to
    /// the image, so a copy could not continue either.
    pub fn fork(&mut self) -> Env {
        assert!(self.pager.is_none(), "cannot fork an environment with a pager attached");
        assert!(!self.rec.recording(), "cannot fork an environment while recording");
        Env {
            mem: self.mem.fork(),
            rec: Recorder::new(),
            pager: None,
            page_registry: self.page_registry.clone(),
        }
    }

    /// Attaches a buffer pool: registers every allocated page and the
    /// given permanent regions (tree meta blocks), then writes the
    /// fault-exempt bootstrap checkpoint. Subsequent [`Self::pin_page`]
    /// calls emit recorded frame traffic and all durability machinery
    /// engages.
    pub fn attach_pager(&mut self, mut pager: Box<Pager>, permanents: &[(Addr, u64)]) {
        assert!(self.pager.is_none(), "a pager is already attached");
        for addr in &self.page_registry {
            pager.register_page(&self.mem, *addr);
        }
        for (addr, len) in permanents {
            pager.register_permanent(&self.mem, *addr, *len);
        }
        pager.bootstrap_checkpoint();
        self.pager = Some(pager);
    }

    /// Detaches and returns the pager (direct mode resumes).
    pub fn detach_pager(&mut self) -> Option<Box<Pager>> {
        self.pager.take()
    }

    /// Restores a pager previously taken with [`Self::detach_pager`]
    /// without re-registering pages or re-bootstrapping the disk — the
    /// exact inverse of detaching. Used to run read-only host-side
    /// audits (consistency checks, invariant scans) in direct mode
    /// without pinning whole tables through a small pool.
    ///
    /// # Panics
    ///
    /// Panics if a pager is already attached.
    pub fn restore_pager(&mut self, pager: Box<Pager>) {
        assert!(self.pager.is_none(), "a pager is already attached");
        self.pager = Some(pager);
    }

    /// How many pages have been registered for paging (resident or
    /// not). Plans size pools as fractions of this.
    pub fn registered_pages(&self) -> usize {
        self.page_registry.len()
    }

    /// Whether a buffer pool is attached.
    pub fn paged(&self) -> bool {
        self.pager.is_some()
    }

    /// The attached pager, if any.
    pub fn pager(&self) -> Option<&Pager> {
        self.pager.as_deref()
    }

    /// Mutable access to the attached pager (counters, disk, crash
    /// points).
    pub fn pager_mut(&mut self) -> Option<&mut Pager> {
        self.pager.as_deref_mut()
    }

    /// Records a freshly allocated page. Host-side only in direct mode;
    /// with a pager attached the page is registered resident and pinned
    /// for the current mini-transaction.
    pub fn register_page(&mut self, addr: Addr) {
        self.page_registry.push(addr);
        if let Some(mut p) = self.pager.take() {
            p.register_new_page(self, addr);
            self.pager = Some(p);
        }
    }

    /// Pins a page before access. A no-op in direct mode; with a pager
    /// attached this is the recorded frame-directory probe (and, on a
    /// miss, eviction plus read-in).
    pub fn pin_page(&mut self, addr: Addr) {
        if let Some(mut p) = self.pager.take() {
            p.pin(self, addr);
            self.pager = Some(p);
        }
    }

    /// Opens a mini-transaction (no-op in direct mode).
    pub fn mtr_begin(&mut self) {
        if let Some(p) = self.pager.as_deref_mut() {
            p.mtr_begin();
        }
    }

    /// Commits the current mini-transaction, logging every change made
    /// under it (no-op in direct mode).
    pub fn mtr_end(&mut self) {
        if let Some(mut p) = self.pager.take() {
            p.mtr_end(self);
            self.pager = Some(p);
        }
    }

    /// Allocates simulated memory (never recorded — allocation itself is
    /// modeled by the instructions of the caller, e.g. the page
    /// allocator's counter update).
    pub fn alloc(&mut self, size: u64, align: u64) -> Addr {
        self.mem.alloc(size, align)
    }

    /// Runs `emit` against the recorder only while it records: the
    /// database load runs with the recorder off, and would otherwise
    /// build millions of ops for the recorder to drop.
    #[inline]
    fn trace(&mut self, emit: impl FnOnce(&mut Recorder)) {
        if self.rec.recording() {
            emit(&mut self.rec);
        }
    }

    /// A recorded u64 load whose value feeds subsequent work.
    pub fn load_u64(&mut self, pc: Pc, addr: Addr) -> u64 {
        self.trace(|r| r.emit(TraceOp::load(pc, addr, 8)));
        self.mem.peek_u64(addr)
    }

    /// A recorded u64 store.
    pub fn store_u64(&mut self, pc: Pc, addr: Addr, v: u64) {
        self.trace(|r| r.emit(TraceOp::store(pc, addr, 8)));
        self.mem.poke_u64(addr, v);
    }

    /// A recorded u32 load.
    pub fn load_u32(&mut self, pc: Pc, addr: Addr) -> u32 {
        self.trace(|r| r.emit(TraceOp::load(pc, addr, 4)));
        self.mem.peek_u32(addr)
    }

    /// A recorded u32 store.
    pub fn store_u32(&mut self, pc: Pc, addr: Addr, v: u32) {
        self.trace(|r| r.emit(TraceOp::store(pc, addr, 4)));
        self.mem.poke_u32(addr, v);
    }

    /// A recorded u16 load.
    pub fn load_u16(&mut self, pc: Pc, addr: Addr) -> u16 {
        self.trace(|r| r.emit(TraceOp::load(pc, addr, 2)));
        self.mem.peek_u16(addr)
    }

    /// A recorded u16 store.
    pub fn store_u16(&mut self, pc: Pc, addr: Addr, v: u16) {
        self.trace(|r| r.emit(TraceOp::store(pc, addr, 2)));
        self.mem.poke_u16(addr, v);
    }

    /// A recorded memory-to-memory copy (`len` bytes, 8 at a time):
    /// load/store pairs plus loop control, like a `memcpy`. Handles
    /// overlapping ranges like `memmove`.
    pub fn copy(&mut self, pc: Pc, dst: Addr, src: Addr, len: u64) {
        self.trace(|r| {
            let mut off = 0;
            while off < len {
                let chunk = (len - off).min(8) as u8;
                r.emit(TraceOp::load(pc, src.offset(off), chunk));
                r.emit(TraceOp::store(pc, dst.offset(off), chunk).with_dep(1));
                off += chunk as u64;
            }
            r.emit(TraceOp::branch(pc, false));
        });
        self.mem.copy_within(src, dst, len);
    }

    /// Recorded read of `len` bytes into a caller buffer.
    pub fn read_into(&mut self, pc: Pc, src: Addr, buf: &mut [u8]) {
        let len = buf.len();
        self.trace(|r| {
            let mut off = 0usize;
            while off < len {
                let chunk = (len - off).min(8) as u8;
                r.emit(TraceOp::load(pc, src.offset(off as u64), chunk));
                off += chunk as usize;
            }
        });
        self.mem.read(src, buf);
    }

    /// Recorded write of a caller buffer to simulated memory.
    pub fn write_from(&mut self, pc: Pc, dst: Addr, buf: &[u8]) {
        self.trace(|r| {
            let mut off = 0usize;
            while off < buf.len() {
                let chunk = (buf.len() - off).min(8) as u8;
                r.emit(TraceOp::store(pc, dst.offset(off as u64), chunk));
                off += chunk as usize;
            }
        });
        self.mem.write_bytes(dst, buf);
    }

    /// Recorded fill of `len` bytes (stores only — used for log payloads,
    /// whose content the simulator never inspects).
    pub fn fill(&mut self, pc: Pc, dst: Addr, len: u64) {
        self.trace(|r| {
            let mut off = 0;
            while off < len {
                let chunk = (len - off).min(8) as u8;
                r.emit(TraceOp::store(pc, dst.offset(off), chunk));
                off += chunk as u64;
            }
        });
    }

    /// Emits `n` integer ALU ops (computation between memory accesses).
    pub fn alu(&mut self, pc: Pc, n: usize) {
        self.trace(|r| {
            for _ in 0..n {
                r.emit(TraceOp::int_alu(pc, latency::INT));
            }
        });
    }

    /// Emits a compare-and-branch with the given outcome; the compare
    /// depends on the most recent op (typically the key load).
    pub fn cmp_branch(&mut self, pc: Pc, taken: bool) {
        self.trace(|r| {
            r.emit(TraceOp::int_alu(pc, latency::INT).with_dep(1));
            r.emit(TraceOp::branch(pc, taken).with_dep(1));
        });
    }

    /// Emits a latch acquire.
    pub fn latch_acquire(&mut self, pc: Pc, latch: LatchId) {
        self.trace(|r| r.emit(TraceOp::latch_acquire(pc, latch)));
    }

    /// Emits a latch release.
    pub fn latch_release(&mut self, pc: Pc, latch: LatchId) {
        self.trace(|r| r.emit(TraceOp::latch_release(pc, latch)));
    }

    /// Emits `n` "DBMS overhead" instruction groups, modeling the code a
    /// production engine runs around each primitive (buffer-pool hashing,
    /// latching internals, comparator calls, cursor maintenance).
    ///
    /// Each group is 8 instructions: a private-scratch load, five
    /// dependent ALU ops and a pair of branches. `scratch` must point at
    /// thread-private memory so the overhead perturbs timing without
    /// creating cross-thread dependences.
    pub fn overhead(&mut self, pc: Pc, scratch: Addr, n: usize) {
        self.trace(|r| {
            for i in 0..n {
                let a = scratch.offset(((i % 32) * 8) as u64);
                r.emit(TraceOp::load(pc, a, 8));
                r.emit(TraceOp::int_alu(pc, latency::INT).with_dep(1));
                r.emit(TraceOp::int_alu(pc, latency::INT).with_dep(1));
                r.emit(TraceOp::int_alu(pc, latency::INT));
                r.emit(TraceOp::int_alu(pc, latency::INT));
                r.emit(TraceOp::int_alu(pc, latency::INT).with_dep(2));
                r.emit(TraceOp::branch(pc, i % 7 != 0));
                r.emit(TraceOp::branch(pc, true));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc() -> Pc {
        Pc::new(1, 1)
    }

    #[test]
    fn accessors_work_without_recording() {
        let mut env = Env::new();
        let a = env.alloc(16, 8);
        env.store_u64(pc(), a, 99);
        assert_eq!(env.load_u64(pc(), a), 99);
        assert!(!env.rec.recording());
    }

    #[test]
    fn recording_captures_every_access() {
        let mut env = Env::new();
        let a = env.alloc(16, 8);
        env.rec.start("t", false);
        env.store_u64(pc(), a, 7);
        let v = env.load_u64(pc(), a);
        env.alu(pc(), 3);
        let p = env.rec.finish();
        assert_eq!(v, 7);
        assert_eq!(p.total_ops(), 5);
        let s = p.stats();
        assert_eq!(s.epochs, 0);
    }

    #[test]
    fn plain_mode_ignores_parallel_markers() {
        let mut env = Env::new();
        env.rec.start("t", false);
        env.rec.begin_parallel();
        env.rec.begin_epoch(pc());
        env.alu(pc(), 10);
        env.rec.end_epoch();
        env.rec.end_parallel();
        let p = env.rec.finish();
        assert_eq!(p.stats().epochs, 0);
        assert_eq!(p.total_ops(), 10); // no spawn overhead either
    }

    #[test]
    fn tls_mode_creates_epochs_with_spawn_overhead() {
        let mut env = Env::new();
        env.rec.start("t", true);
        env.rec.begin_parallel();
        for _ in 0..3 {
            env.rec.begin_epoch(pc());
            env.alu(pc(), 10);
            env.rec.end_epoch();
        }
        env.rec.end_parallel();
        let p = env.rec.finish();
        let s = p.stats();
        assert_eq!(s.epochs, 3);
        assert_eq!(s.parallel_ops, 3 * (10 + SPAWN_OVERHEAD_OPS));
    }

    #[test]
    fn copy_moves_data_and_emits_pairs() {
        let mut env = Env::new();
        let src = env.alloc(24, 8);
        let dst = env.alloc(24, 8);
        env.mem.write_bytes(src, b"abcdefghijklmnopqrstuvwx");
        env.rec.start("t", false);
        env.copy(pc(), dst, src, 24);
        let p = env.rec.finish();
        assert_eq!(env.mem.bytes(dst, 24), b"abcdefghijklmnopqrstuvwx");
        let loads = p.iter_ops().filter(|o| o.is_load()).count();
        let stores = p.iter_ops().filter(|o| o.is_store()).count();
        assert_eq!((loads, stores), (3, 3));
    }

    #[test]
    fn read_write_buffers_round_trip() {
        let mut env = Env::new();
        let a = env.alloc(10, 8);
        env.rec.start("t", false);
        env.write_from(pc(), a, b"0123456789");
        let mut buf = [0u8; 10];
        env.read_into(pc(), a, &mut buf);
        let _ = env.rec.finish();
        assert_eq!(&buf, b"0123456789");
    }

    #[test]
    fn overhead_touches_only_scratch() {
        let mut env = Env::new();
        let scratch = env.alloc(256, 8);
        env.rec.start("t", false);
        env.overhead(pc(), scratch, 10);
        let p = env.rec.finish();
        assert_eq!(p.total_ops(), 80);
        for op in p.iter_ops() {
            if let Some(a) = op.mem_addr() {
                assert!(a.0 >= scratch.0 && a.0 < scratch.0 + 256);
            }
        }
    }

    #[test]
    fn populations_ignore_the_engine_options() {
        use crate::{OptLevel, Tpcc, TpccConfig};
        let populate = |opts| {
            let cfg = TpccConfig { opts, ..TpccConfig::test() };
            Tpcc::new(cfg).env
        };
        let (none, full) = (populate(OptLevel::none()), populate(OptLevel::fully_optimized()));
        let image = |env: &Env| env.mem.bytes(Addr(64), env.mem.allocated() as usize);
        assert_eq!(none.mem.allocated(), full.mem.allocated());
        assert!(image(&none) == image(&full), "memory images differ");
        assert_eq!(none.page_registry, full.page_registry);
    }

    #[test]
    fn forks_copy_the_image_and_registry_and_nothing_else() {
        let mut env = Env::new();
        let a = env.alloc(64, 8);
        env.register_page(a);
        env.store_u64(pc(), a, 5);
        let mut copy = env.fork();
        assert_eq!(copy.page_registry, env.page_registry);
        assert_eq!(copy.load_u64(pc(), a), 5);
        copy.store_u64(pc(), a, 6);
        assert_eq!(env.load_u64(pc(), a), 5, "the copy owns its image");
        assert!(!copy.rec.recording() && !copy.paged());
    }

    #[test]
    #[should_panic(expected = "while recording")]
    fn forking_a_recording_panics() {
        let mut env = Env::new();
        env.rec.start("t", false);
        let _ = env.fork();
    }

    #[test]
    #[should_panic(expected = "already running")]
    fn double_start_panics() {
        let mut env = Env::new();
        env.rec.start("a", false);
        env.rec.start("b", false);
    }
}
