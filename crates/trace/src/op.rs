//! Dynamic-instruction representation.
//!
//! A [`TraceOp`] is stored as a 16-byte packed record so that multi-million
//! instruction traces (the paper's threads run up to ~490k dynamic
//! instructions each) stay cache- and memory-friendly. Construction goes
//! through typed constructors and inspection through the [`OpKind`] view
//! enum, so the packing is invisible to users.

use serde::{Deserialize, Serialize};
use std::fmt;
use zerocopy::{FromBytes, Immutable, IntoBytes, KnownLayout};

/// A synthetic program counter.
///
/// The workload generator is ordinary Rust code, not a MIPS binary, so PCs
/// are synthesized from a *(module, site)* pair: a stable identifier of the
/// static emission site. The paper's hardware dependence profiler reports
/// load/store PC pairs; these synthetic PCs play exactly that role and map
/// back to named source locations via the workload's site tables.
///
/// ```
/// use tls_trace::Pc;
/// let pc = Pc::new(3, 7);
/// assert_eq!(pc.module(), 3);
/// assert_eq!(pc.site(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Pc(pub u32);

impl Pc {
    /// Builds a PC from a module id (high 16 bits) and a site id within the
    /// module (low 16 bits).
    pub const fn new(module: u16, site: u16) -> Self {
        Pc(((module as u32) << 16) | site as u32)
    }

    /// The module id this PC belongs to.
    pub const fn module(self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// The site id within the module.
    pub const fn site(self) -> u16 {
        self.0 as u16
    }
}

/// The module id reserved for declarative scan loops: the harness
/// workload compiler stamps every op of a parallelized range-scan
/// iteration with this module, and the simulator attributes epochs whose
/// first op carries it to the report's scan-epoch accounting
/// (`scan_epochs` / `scan_epoch_ops`). Chosen above the MiniDB table and
/// transaction module ranges.
pub const SCAN_LOOP_MODULE: u16 = 0x7C;

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc:{:04x}:{:04x}", self.module(), self.site())
    }
}

/// A byte address in the simulated flat address space.
///
/// The workload substrate allocates all of its data structures inside a
/// simulated memory image, so addresses are meaningful across the whole
/// system: two epochs touching the same B-tree page header really do touch
/// the same [`Addr`] range, which is what drives dependence violations.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Addr(pub u64);

impl Addr {
    /// Byte offset addition. Panics on overflow in debug builds, like `+`.
    #[must_use]
    pub fn offset(self, bytes: u64) -> Self {
        Addr(self.0 + bytes)
    }

    /// The containing aligned block of `1 << shift` bytes (e.g. a cache
    /// line address for `shift = 5` with 32-byte lines).
    #[must_use]
    pub fn align_down(self, shift: u32) -> Self {
        Addr(self.0 >> shift << shift)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Identifies one latch (short-term lock) in the workload.
///
/// Latches model *escaped speculation*: operations a speculative thread
/// performs non-speculatively against shared DBMS structures. A speculative
/// thread that blocks on a held latch accrues latch-stall time — one of the
/// execution-time categories in Figure 5 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LatchId(pub u16);

/// Default instruction latencies (Table 1 of the paper).
///
/// The scanned table in the paper dropped some digits; the values below
/// restore them from the R10000-derived pipeline the paper describes and
/// are recorded as a substitution in `DESIGN.md`.
pub mod latency {
    /// "All other integer": 1 cycle.
    pub const INT: u8 = 1;
    /// Integer multiply: 12 cycles.
    pub const INT_MUL: u8 = 12;
    /// Integer divide: 76 cycles.
    pub const INT_DIV: u8 = 76;
    /// "All other FP": 2 cycles.
    pub const FP: u8 = 2;
    /// FP divide: 15 cycles.
    pub const FP_DIV: u8 = 15;
    /// FP square root: 20 cycles.
    pub const FP_SQRT: u8 = 20;
}

/// The decoded view of a [`TraceOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// An integer ALU operation with the given execution latency.
    IntAlu {
        /// Execution latency in cycles (see [`latency`]).
        latency: u8,
    },
    /// A floating-point operation with the given execution latency.
    FpAlu {
        /// Execution latency in cycles (see [`latency`]).
        latency: u8,
    },
    /// A load of `size` bytes from `addr`.
    Load {
        /// Byte address of the access.
        addr: Addr,
        /// Access size in bytes (1, 2, 4 or 8).
        size: u8,
    },
    /// A store of `size` bytes to `addr`.
    Store {
        /// Byte address of the access.
        addr: Addr,
        /// Access size in bytes (1, 2, 4 or 8).
        size: u8,
    },
    /// A conditional branch and its actual outcome.
    Branch {
        /// Whether the branch was taken in the recorded execution.
        taken: bool,
    },
    /// Acquire a latch (escaped, non-speculative synchronization).
    LatchAcquire(LatchId),
    /// Release a latch previously acquired by the same thread.
    LatchRelease(LatchId),
}

const CLASS_INT: u8 = 0;
const CLASS_FP: u8 = 1;
const CLASS_LOAD: u8 = 2;
const CLASS_STORE: u8 = 3;
const CLASS_BRANCH: u8 = 4;
const CLASS_LATCH_ACQ: u8 = 5;
const CLASS_LATCH_REL: u8 = 6;

/// One dynamic instruction of a recorded execution.
///
/// Stored packed (16 bytes); use the constructors ([`TraceOp::int_alu`],
/// [`TraceOp::load`], …) and [`TraceOp::kind`] to interact with it.
///
/// Each op optionally records a *dependence distance*: how many dynamic
/// instructions earlier its producer ran. The core timing model uses this to
/// keep issue from being embarrassingly parallel; distance 0 means "no
/// modeled register dependence".
///
/// The struct is `#[repr(C)]` with all-integer fields in descending
/// alignment order after `pc`, so its in-memory layout on a little-endian
/// target is byte-for-byte the canonical wire record of
/// [`TraceOp::to_raw`] (`pc:4 | class:1 | arg:1 | dep:2 | addr:8`, no
/// padding). The harness trace store exploits this to serve ops straight
/// out of memory-mapped snapshot files via the zerocopy casts — see the
/// layout assertions below, which pin size, alignment and every field
/// offset at compile time.
#[derive(
    Clone,
    Copy,
    PartialEq,
    Eq,
    Hash,
    Serialize,
    Deserialize,
    FromBytes,
    IntoBytes,
    Immutable,
    KnownLayout,
)]
#[repr(C)]
pub struct TraceOp {
    pc: u32,
    class: u8,
    /// latency (ALU), size (mem), taken flag (branch)
    arg: u8,
    dep: u16,
    /// address (mem) or latch id (latch ops); unused otherwise
    addr: u64,
}

// The zerocopy read path is only sound if the compiler lays `TraceOp`
// out exactly as the 16-byte wire record; `repr(C)` guarantees field
// order, and these assertions pin the absence of padding.
const _: () = {
    assert!(std::mem::size_of::<TraceOp>() == 16);
    assert!(std::mem::align_of::<TraceOp>() == 8);
    assert!(std::mem::offset_of!(TraceOp, pc) == 0);
    assert!(std::mem::offset_of!(TraceOp, class) == 4);
    assert!(std::mem::offset_of!(TraceOp, arg) == 5);
    assert!(std::mem::offset_of!(TraceOp, dep) == 6);
    assert!(std::mem::offset_of!(TraceOp, addr) == 8);
};

impl TraceOp {
    /// An integer ALU op. `lat` of 0 is rounded up to 1.
    pub fn int_alu(pc: Pc, lat: u8) -> Self {
        TraceOp { pc: pc.0, class: CLASS_INT, arg: lat.max(1), dep: 0, addr: 0 }
    }

    /// A floating-point op. `lat` of 0 is rounded up to 1.
    pub fn fp_alu(pc: Pc, lat: u8) -> Self {
        TraceOp { pc: pc.0, class: CLASS_FP, arg: lat.max(1), dep: 0, addr: 0 }
    }

    /// A load of `size` bytes (1–8) at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is 0 or greater than 8.
    pub fn load(pc: Pc, addr: Addr, size: u8) -> Self {
        assert!((1..=8).contains(&size), "load size must be 1..=8, got {size}");
        TraceOp { pc: pc.0, class: CLASS_LOAD, arg: size, dep: 0, addr: addr.0 }
    }

    /// A store of `size` bytes (1–8) at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is 0 or greater than 8.
    pub fn store(pc: Pc, addr: Addr, size: u8) -> Self {
        assert!((1..=8).contains(&size), "store size must be 1..=8, got {size}");
        TraceOp { pc: pc.0, class: CLASS_STORE, arg: size, dep: 0, addr: addr.0 }
    }

    /// A conditional branch with recorded outcome `taken`.
    pub fn branch(pc: Pc, taken: bool) -> Self {
        TraceOp { pc: pc.0, class: CLASS_BRANCH, arg: taken as u8, dep: 0, addr: 0 }
    }

    /// A latch acquire.
    pub fn latch_acquire(pc: Pc, latch: LatchId) -> Self {
        TraceOp { pc: pc.0, class: CLASS_LATCH_ACQ, arg: 0, dep: 0, addr: latch.0 as u64 }
    }

    /// A latch release.
    pub fn latch_release(pc: Pc, latch: LatchId) -> Self {
        TraceOp { pc: pc.0, class: CLASS_LATCH_REL, arg: 0, dep: 0, addr: latch.0 as u64 }
    }

    /// Sets the dependence distance (dynamic instructions back to the
    /// producer); returns `self` for chaining. Distance saturates at
    /// `u16::MAX`.
    #[must_use]
    pub fn with_dep(mut self, distance: u16) -> Self {
        self.dep = distance;
        self
    }

    /// The synthetic program counter of this op.
    #[inline]
    pub fn pc(&self) -> Pc {
        Pc(self.pc)
    }

    /// The dependence distance; 0 means no modeled dependence.
    #[inline]
    pub fn dep(&self) -> u16 {
        self.dep
    }

    /// Decodes the packed representation.
    #[inline]
    pub fn kind(&self) -> OpKind {
        match self.class {
            CLASS_INT => OpKind::IntAlu { latency: self.arg },
            CLASS_FP => OpKind::FpAlu { latency: self.arg },
            CLASS_LOAD => OpKind::Load { addr: Addr(self.addr), size: self.arg },
            CLASS_STORE => OpKind::Store { addr: Addr(self.addr), size: self.arg },
            CLASS_BRANCH => OpKind::Branch { taken: self.arg != 0 },
            CLASS_LATCH_ACQ => OpKind::LatchAcquire(LatchId(self.addr as u16)),
            CLASS_LATCH_REL => OpKind::LatchRelease(LatchId(self.addr as u16)),
            other => unreachable!("corrupt op class {other}"),
        }
    }

    /// True for loads and stores.
    pub fn is_mem(&self) -> bool {
        self.class == CLASS_LOAD || self.class == CLASS_STORE
    }

    /// True for loads.
    pub fn is_load(&self) -> bool {
        self.class == CLASS_LOAD
    }

    /// True for stores.
    pub fn is_store(&self) -> bool {
        self.class == CLASS_STORE
    }

    /// The memory address, if this is a load or store.
    pub fn mem_addr(&self) -> Option<Addr> {
        self.is_mem().then_some(Addr(self.addr))
    }

    /// Encodes the op as its canonical 16-byte little-endian record
    /// (`pc:4 | class:1 | arg:1 | dep:2 | addr:8`) — the wire format of
    /// the harness trace-snapshot store. [`TraceOp::from_raw`] inverts it.
    pub fn to_raw(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[0..4].copy_from_slice(&self.pc.to_le_bytes());
        out[4] = self.class;
        out[5] = self.arg;
        out[6..8].copy_from_slice(&self.dep.to_le_bytes());
        out[8..16].copy_from_slice(&self.addr.to_le_bytes());
        out
    }

    /// Decodes a 16-byte record produced by [`TraceOp::to_raw`],
    /// validating every field so corrupt bytes are rejected instead of
    /// producing an op that later trips `unreachable!` in [`TraceOp::kind`].
    pub fn from_raw(raw: [u8; 16]) -> Result<Self, RawOpError> {
        let op = TraceOp {
            pc: u32::from_le_bytes(raw[0..4].try_into().expect("4-byte slice")),
            class: raw[4],
            arg: raw[5],
            dep: u16::from_le_bytes(raw[6..8].try_into().expect("2-byte slice")),
            addr: u64::from_le_bytes(raw[8..16].try_into().expect("8-byte slice")),
        };
        op.validate()?;
        Ok(op)
    }

    /// Checks the semantic field invariants [`TraceOp::from_raw`]
    /// enforces, for ops obtained by reinterpreting raw memory (the
    /// zerocopy mmap path) rather than by field-wise decoding. An op
    /// that passes is safe to hand to [`TraceOp::kind`].
    pub fn validate(&self) -> Result<(), RawOpError> {
        match self.class {
            CLASS_INT | CLASS_FP => {
                if self.arg == 0 {
                    return Err(RawOpError::ZeroLatency);
                }
                if self.addr != 0 {
                    return Err(RawOpError::NonZeroPadding);
                }
            }
            CLASS_LOAD | CLASS_STORE => {
                if !(1..=8).contains(&self.arg) {
                    return Err(RawOpError::BadMemSize(self.arg));
                }
            }
            CLASS_BRANCH => {
                if self.arg > 1 {
                    return Err(RawOpError::BadBranchFlag(self.arg));
                }
                if self.addr != 0 {
                    return Err(RawOpError::NonZeroPadding);
                }
            }
            CLASS_LATCH_ACQ | CLASS_LATCH_REL => {
                if self.arg != 0 {
                    return Err(RawOpError::NonZeroPadding);
                }
                if self.addr > u16::MAX as u64 {
                    return Err(RawOpError::BadLatchId(self.addr));
                }
            }
            other => return Err(RawOpError::BadClass(other)),
        }
        Ok(())
    }

    /// Whether the wire record ([`TraceOp::to_raw`]) whose two
    /// little-endian words are `head` (bytes 0–8: pc, class, arg, dep)
    /// and `addr` (bytes 8–16) passes [`TraceOp::validate`]. The rules
    /// are the same, read from a per-class table without a branch, so a
    /// loop over millions of records runs at memory speed. It says only
    /// whether a record is valid; `validate` says why not.
    #[inline]
    pub fn wire_valid(head: u64, addr: u64) -> bool {
        let class = (head >> 32) as u8;
        let arg = (head >> 40) as u8;
        let (arg_min, arg_span, addr_max) = WIRE_RULES[(class & 7) as usize];
        (class <= CLASS_LATCH_REL) & (arg.wrapping_sub(arg_min) <= arg_span) & (addr <= addr_max)
    }
}

/// [`TraceOp::validate`]'s rules by class: `arg` must lie in `arg_min ..=
/// arg_min + arg_span` and `addr` must not exceed `addr_max`. Row 7 is a
/// placeholder; classes above [`CLASS_LATCH_REL`] fail on their own.
const WIRE_RULES: [(u8, u8, u64); 8] = {
    let mut rules = [(0, 0, 0); 8];
    rules[CLASS_INT as usize] = (1, 254, 0);
    rules[CLASS_FP as usize] = (1, 254, 0);
    rules[CLASS_LOAD as usize] = (1, 7, u64::MAX);
    rules[CLASS_STORE as usize] = (1, 7, u64::MAX);
    rules[CLASS_BRANCH as usize] = (0, 1, 0);
    rules[CLASS_LATCH_ACQ as usize] = (0, 0, u16::MAX as u64);
    rules[CLASS_LATCH_REL as usize] = (0, 0, u16::MAX as u64);
    rules
};

/// Why a 16-byte record was rejected by [`TraceOp::from_raw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawOpError {
    /// The class byte names no op class.
    BadClass(u8),
    /// An ALU op with latency 0 (constructors round up to 1).
    ZeroLatency,
    /// A load/store size outside 1..=8.
    BadMemSize(u8),
    /// A branch taken-flag other than 0/1.
    BadBranchFlag(u8),
    /// A latch id outside the `u16` range.
    BadLatchId(u64),
    /// A field that must be zero for this class was not.
    NonZeroPadding,
}

impl fmt::Display for RawOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RawOpError::BadClass(c) => write!(f, "unknown op class {c}"),
            RawOpError::ZeroLatency => write!(f, "ALU op with zero latency"),
            RawOpError::BadMemSize(s) => write!(f, "memory access size {s} outside 1..=8"),
            RawOpError::BadBranchFlag(b) => write!(f, "branch taken flag {b} outside 0..=1"),
            RawOpError::BadLatchId(id) => write!(f, "latch id {id} exceeds u16"),
            RawOpError::NonZeroPadding => write!(f, "padding field is non-zero"),
        }
    }
}

impl std::error::Error for RawOpError {}

impl fmt::Debug for TraceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:?}", self.pc(), self.kind())?;
        if self.dep != 0 {
            write!(f, " dep-{}", self.dep)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_is_16_bytes() {
        assert_eq!(std::mem::size_of::<TraceOp>(), 16);
    }

    #[test]
    fn pc_round_trips_module_and_site() {
        let pc = Pc::new(0xBEEF, 0x1234);
        assert_eq!(pc.module(), 0xBEEF);
        assert_eq!(pc.site(), 0x1234);
        assert_eq!(format!("{pc}"), "pc:beef:1234");
    }

    #[test]
    fn addr_alignment() {
        assert_eq!(Addr(0x1234).align_down(5), Addr(0x1220));
        assert_eq!(Addr(0x1220).align_down(5), Addr(0x1220));
        assert_eq!(Addr(0x1234).offset(4), Addr(0x1238));
    }

    #[test]
    fn kinds_round_trip() {
        let pc = Pc::new(1, 2);
        let cases = [
            TraceOp::int_alu(pc, 12),
            TraceOp::fp_alu(pc, 15),
            TraceOp::load(pc, Addr(0xABCD), 8),
            TraceOp::store(pc, Addr(0xABCD), 4),
            TraceOp::branch(pc, true),
            TraceOp::branch(pc, false),
            TraceOp::latch_acquire(pc, LatchId(7)),
            TraceOp::latch_release(pc, LatchId(7)),
        ];
        let kinds: Vec<OpKind> = cases.iter().map(TraceOp::kind).collect();
        assert_eq!(kinds[0], OpKind::IntAlu { latency: 12 });
        assert_eq!(kinds[1], OpKind::FpAlu { latency: 15 });
        assert_eq!(kinds[2], OpKind::Load { addr: Addr(0xABCD), size: 8 });
        assert_eq!(kinds[3], OpKind::Store { addr: Addr(0xABCD), size: 4 });
        assert_eq!(kinds[4], OpKind::Branch { taken: true });
        assert_eq!(kinds[5], OpKind::Branch { taken: false });
        assert_eq!(kinds[6], OpKind::LatchAcquire(LatchId(7)));
        assert_eq!(kinds[7], OpKind::LatchRelease(LatchId(7)));
    }

    #[test]
    fn zero_latency_rounds_up() {
        assert_eq!(TraceOp::int_alu(Pc::new(0, 0), 0).kind(), OpKind::IntAlu { latency: 1 });
    }

    #[test]
    #[should_panic(expected = "load size")]
    fn oversized_load_panics() {
        let _ = TraceOp::load(Pc::new(0, 0), Addr(0), 16);
    }

    #[test]
    fn mem_predicates() {
        let pc = Pc::new(0, 0);
        let ld = TraceOp::load(pc, Addr(8), 8);
        let st = TraceOp::store(pc, Addr(8), 8);
        let alu = TraceOp::int_alu(pc, 1);
        assert!(ld.is_mem() && ld.is_load() && !ld.is_store());
        assert!(st.is_mem() && st.is_store() && !st.is_load());
        assert!(!alu.is_mem());
        assert_eq!(ld.mem_addr(), Some(Addr(8)));
        assert_eq!(alu.mem_addr(), None);
    }

    #[test]
    fn raw_round_trips_every_kind() {
        let pc = Pc::new(7, 9);
        let cases = [
            TraceOp::int_alu(pc, 12).with_dep(3),
            TraceOp::fp_alu(pc, 15),
            TraceOp::load(pc, Addr(0xDEAD_BEEF), 8).with_dep(42),
            TraceOp::store(pc, Addr(0xABCD), 4),
            TraceOp::branch(pc, true),
            TraceOp::branch(pc, false),
            TraceOp::latch_acquire(pc, LatchId(7)),
            TraceOp::latch_release(pc, LatchId(u16::MAX)),
        ];
        for op in cases {
            assert_eq!(TraceOp::from_raw(op.to_raw()), Ok(op));
        }
    }

    #[test]
    fn raw_rejects_corrupt_records() {
        let bad_class = {
            let mut r = TraceOp::int_alu(Pc::new(0, 0), 1).to_raw();
            r[4] = 9;
            r
        };
        assert_eq!(TraceOp::from_raw(bad_class), Err(RawOpError::BadClass(9)));
        let bad_size = {
            let mut r = TraceOp::load(Pc::new(0, 0), Addr(8), 8).to_raw();
            r[5] = 16;
            r
        };
        assert_eq!(TraceOp::from_raw(bad_size), Err(RawOpError::BadMemSize(16)));
        let bad_flag = {
            let mut r = TraceOp::branch(Pc::new(0, 0), true).to_raw();
            r[5] = 2;
            r
        };
        assert_eq!(TraceOp::from_raw(bad_flag), Err(RawOpError::BadBranchFlag(2)));
        let bad_latch = {
            let mut r = TraceOp::latch_acquire(Pc::new(0, 0), LatchId(1)).to_raw();
            r[12] = 1; // latch id bit above u16
            r
        };
        assert_eq!(TraceOp::from_raw(bad_latch), Err(RawOpError::BadLatchId(1 | (1 << 32))));
        let zero_lat = {
            let mut r = TraceOp::int_alu(Pc::new(0, 0), 1).to_raw();
            r[5] = 0;
            r
        };
        assert_eq!(TraceOp::from_raw(zero_lat), Err(RawOpError::ZeroLatency));
    }

    /// The branch-free table agrees with `validate` on every class and
    /// `arg` byte, at the `addr` values either side of each limit.
    #[test]
    fn wire_rules_agree_with_validate() {
        for class in 0..=u8::MAX {
            for arg in 0..=u8::MAX {
                for addr in [0, 1, u16::MAX as u64, u16::MAX as u64 + 1, u64::MAX] {
                    let mut raw = [0u8; 16];
                    raw[0..4].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
                    raw[4] = class;
                    raw[5] = arg;
                    raw[6..8].copy_from_slice(&7u16.to_le_bytes());
                    raw[8..16].copy_from_slice(&addr.to_le_bytes());
                    let head = u64::from_le_bytes(raw[0..8].try_into().unwrap());
                    assert_eq!(
                        TraceOp::wire_valid(head, addr),
                        TraceOp::from_raw(raw).is_ok(),
                        "class {class} arg {arg} addr {addr:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn dep_distance_is_preserved() {
        let op = TraceOp::int_alu(Pc::new(0, 0), 1).with_dep(42);
        assert_eq!(op.dep(), 42);
        assert!(format!("{op:?}").contains("dep-42"));
    }
}
