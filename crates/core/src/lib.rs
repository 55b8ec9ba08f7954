//! Thread-level speculation with **sub-thread checkpointing** — the
//! contribution of Colohan, Ailamaki, Steffan and Mowry, *"Tolerating
//! Dependences Between Large Speculative Threads Via Sub-Threads"*
//! (ISCA 2006) — together with the chip-multiprocessor simulator that
//! evaluates it.
//!
//! # The problem
//!
//! Classic TLS hardware is *all-or-nothing*: a single violated read-after-
//! write dependence restarts the whole speculative thread. That is fine
//! for the few-hundred-instruction, mostly-independent threads of SPEC
//! loops, but database transactions decompose into threads of 7k–490k
//! dynamic instructions with dozens of unpredictable dependences buried in
//! the DBMS — and all-or-nothing TLS gains nothing there.
//!
//! # The mechanism
//!
//! A **sub-thread** is a lightweight checkpoint of a speculative thread.
//! The shared L2 keeps speculative state per *(thread, sub-thread)*
//! context: a speculatively-loaded bit per cache line and speculatively-
//! modified bits per word. When a dependence violation is detected, the
//! thread rewinds only to the sub-thread containing the dependent load
//! ([`SpecL2::write`] reports the earliest reading sub-thread), and logically-later threads rewind
//! to the sub-thread recorded in their [`start table`](StartTable) — the
//! *selective* secondary violations of Figure 4(b).
//!
//! # Crate layout
//!
//! * [`CmpConfig`] and friends — machine configuration (Table 1 defaults).
//! * [`SpecL2`] — the multi-versioned shared L2 with speculative state,
//!   violation detection and the speculative victim cache.
//! * [`CmpSimulator`] — the cycle-stepped 4-CPU simulator; takes a
//!   [`TraceProgram`](tls_trace::TraceProgram), returns a [`SimReport`]
//!   with the Figure-5 execution-time breakdown.
//! * [`DependenceProfiler`] — the hardware profiling support of §3.1
//!   (exposed-load table, failed-cycle attribution to load/store PC
//!   pairs).
//! * [`experiment`] — the named experiment configurations of the
//!   evaluation (SEQUENTIAL, TLS-SEQ, NO SUB-THREAD, BASELINE,
//!   NO SPECULATION) and parameter-sweep helpers.
//!
//! # Example
//!
//! ```
//! use tls_core::{CmpConfig, CmpSimulator};
//! use tls_trace::{Addr, OpSink, Pc, ProgramBuilder};
//!
//! // Two epochs with a cross-thread RAW dependence through 0x100.
//! let mut b = ProgramBuilder::new("raw");
//! b.begin_parallel();
//! b.begin_epoch();
//! b.int_ops(Pc::new(1, 0), 2000);
//! b.store(Pc::new(1, 1), Addr(0x100), 8);
//! b.end_epoch();
//! b.begin_epoch();
//! b.load(Pc::new(2, 0), Addr(0x100), 8); // reads too early -> violated
//! b.int_ops(Pc::new(2, 1), 2000);
//! b.end_epoch();
//! b.end_parallel();
//! let program = b.finish();
//!
//! let report = CmpSimulator::new(CmpConfig::paper_default()).run(&program);
//! assert_eq!(report.violations.primary, 1);
//! assert!(report.breakdown.failed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accounting;
pub mod chaos;
mod checks;
mod config;
pub mod experiment;
mod l2spec;
mod latch;
mod linemap;
mod membuf;
mod predictor;
mod profile;
mod report;
mod simulator;
pub mod synthetic;
mod vpredict;

pub use accounting::{Breakdown, CycleCategory, FaultStats, SubThreadLedger};
pub use chaos::{
    DiskFaultClass, DiskFaultEvent, DiskFaultPlan, FaultClass, FaultEvent, FaultInjector,
    FaultPlan, RunOptions, ALL_DISK_FAULT_CLASSES, ALL_FAULT_CLASSES, STORE_BUFFER_FAULT_CLASSES,
};
pub use config::{
    CmpConfig, ExhaustionPolicy, MemoryModel, SecondaryPolicy, SpacingPolicy, SubThreadConfig,
    MAX_CPUS, MAX_SUBTHREADS,
};
pub use experiment::ExperimentKind;
pub use l2spec::{AccessCtx, L2Outcome, PendingViolation, SpecL2, ViolationKind};
pub use latch::{LatchError, LatchTable};
pub use membuf::{BufferedStore, ForwardOutcome, HbAuditor, StoreBuffer};
pub use predictor::{DependencePredictor, PredictorConfig};
pub use profile::{DependenceProfiler, ProfileEntry};
pub use report::{LivelockReport, ProtocolError, SimReport, ViolationCounts};
pub use simulator::{CmpSimulator, StartTable};
pub use vpredict::{value_model, VPredictConfig, ValuePredictor};

/// The observability layer (re-exported from [`tls_obs`]): passive event
/// sink, sampled metrics and the Perfetto exporter. Pass an
/// [`Observer`](tls_obs::Observer) to
/// [`CmpSimulator::run_observed`] to capture a run's timeline without
/// perturbing it.
pub use tls_obs as obs;
pub use tls_obs::Observer;
