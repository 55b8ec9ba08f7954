//! The TPC-C workload (single warehouse), recorded as trace programs.
//!
//! All five TPC-C transactions are implemented against the MiniDB engine,
//! plus the paper's two variants (NEW ORDER 150 with 50–150 items, and
//! DELIVERY with its *outer* loop parallelized). Each transaction marks
//! its main loop as parallel; recording in TLS mode turns iterations into
//! epochs.
//!
//! Parameters follow the TPC-C run rules (NURand selection, 1% of it
//! omitted: we skip the intentional 1% aborted NEW ORDER since the paper
//! measures committed-transaction latency). As in the paper, terminal
//! I/O, query planning and wait times are not modeled, and the buffer
//! pool is memory-resident.

pub mod consistency;
mod delivery;
mod load;
mod new_order;
mod order_status;
mod payment;
pub mod schema;
mod stock_level;

use crate::pager::Pager;
use crate::{Db, Env, OptLevel, PagerCounters};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tls_core::DiskFaultPlan;
use tls_trace::{Addr, Pc, TraceProgram};

pub use schema::Tables;

/// Workload scale and engine options.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TpccConfig {
    /// Districts per warehouse (TPC-C: 10).
    pub districts: u32,
    /// Rows in ITEM/STOCK (TPC-C: 100 000).
    pub items: u32,
    /// Customers per district (TPC-C: 3 000).
    pub customers_per_district: u32,
    /// Orders pre-loaded per district (TPC-C: 3 000, the newest third
    /// undelivered).
    pub initial_orders_per_district: u32,
    /// RNG seed; identical seeds give identical transaction parameters.
    pub seed: u64,
    /// Engine optimization level (see [`OptLevel`]).
    pub opts: OptLevel,
    /// DBMS work amplification: overhead instruction groups emitted per
    /// engine primitive, standing in for the buffer-pool/latching/cursor
    /// code a production engine runs around each access. Calibrated so
    /// paper-scale NEW ORDER threads are ≈60k dynamic instructions.
    pub work_scale: u32,
}

impl TpccConfig {
    /// The paper's scale: full TPC-C single-warehouse population.
    pub fn paper() -> Self {
        TpccConfig {
            districts: 10,
            items: 100_000,
            customers_per_district: 3_000,
            initial_orders_per_district: 3_000,
            seed: 0x5EED_2006,
            opts: OptLevel::fully_optimized(),
            work_scale: 950,
        }
    }

    /// A mid-size configuration: large enough for the paper's violation
    /// dynamics (threads of a few thousand instructions, meaningful
    /// sub-thread checkpoints), small enough for debug-build test runs.
    pub fn small() -> Self {
        TpccConfig {
            districts: 10,
            items: 5_000,
            customers_per_district: 300,
            initial_orders_per_district: 100,
            seed: 0x5EED_2006,
            opts: OptLevel::fully_optimized(),
            work_scale: 60,
        }
    }

    /// A milliseconds-fast configuration for tests.
    pub fn test() -> Self {
        TpccConfig {
            districts: 10,
            items: 400,
            customers_per_district: 60,
            initial_orders_per_district: 15,
            seed: 0x5EED_2006,
            opts: OptLevel::fully_optimized(),
            work_scale: 4,
        }
    }

    /// Validates scale invariants.
    ///
    /// # Panics
    ///
    /// Panics if the scale is too small for the workload (NEW ORDER 150
    /// draws up to 150 distinct items; DELIVERY needs pending orders).
    pub fn validate(&self) {
        assert!(self.items >= 300, "need at least 300 items for distinct draws");
        assert!(self.districts >= 1 && self.districts <= 10);
        assert!(self.customers_per_district >= 10);
        assert!(self.initial_orders_per_district >= 10);
    }
}

/// The seven benchmarks of the evaluation (five transactions + two
/// variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Transaction {
    /// NEW ORDER, 5–15 items.
    NewOrder,
    /// NEW ORDER scaled to 50–150 items (the paper's NEW ORDER 150).
    NewOrder150,
    /// PAYMENT.
    Payment,
    /// ORDER STATUS.
    OrderStatus,
    /// DELIVERY with the inner (order-line) loop parallelized.
    Delivery,
    /// DELIVERY with the outer (district) loop parallelized.
    DeliveryOuter,
    /// STOCK LEVEL.
    StockLevel,
}

impl Transaction {
    /// All seven benchmarks, in Table 2 order.
    pub const ALL: [Transaction; 7] = [
        Transaction::NewOrder,
        Transaction::NewOrder150,
        Transaction::Delivery,
        Transaction::DeliveryOuter,
        Transaction::StockLevel,
        Transaction::Payment,
        Transaction::OrderStatus,
    ];

    /// The paper's display name.
    pub fn label(&self) -> &'static str {
        match self {
            Transaction::NewOrder => "NEW ORDER",
            Transaction::NewOrder150 => "NEW ORDER 150",
            Transaction::Payment => "PAYMENT",
            Transaction::OrderStatus => "ORDER STATUS",
            Transaction::Delivery => "DELIVERY",
            Transaction::DeliveryOuter => "DELIVERY OUTER",
            Transaction::StockLevel => "STOCK LEVEL",
        }
    }

    /// Identifier used as the trace-program name.
    pub fn trace_name(&self) -> &'static str {
        match self {
            Transaction::NewOrder => "new_order",
            Transaction::NewOrder150 => "new_order_150",
            Transaction::Payment => "payment",
            Transaction::OrderStatus => "order_status",
            Transaction::Delivery => "delivery",
            Transaction::DeliveryOuter => "delivery_outer",
            Transaction::StockLevel => "stock_level",
        }
    }

    /// Parses a benchmark name as spelled on a command line.
    ///
    /// Accepts the [`trace_name`](Self::trace_name) spelling
    /// (`new_order`) as well as the paper's display
    /// [`label`](Self::label) (`NEW ORDER`) in any case, with spaces or
    /// dashes in place of underscores. Returns `None` for anything
    /// else — callers should list [`Transaction::ALL`] in their error
    /// message rather than silently falling back.
    pub fn from_cli_name(name: &str) -> Option<Transaction> {
        let normalized: String = name
            .trim()
            .chars()
            .map(|c| match c {
                ' ' | '-' => '_',
                c => c.to_ascii_lowercase(),
            })
            .collect();
        Transaction::ALL.iter().copied().find(|t| t.trace_name() == normalized)
    }
}

/// A loaded TPC-C database plus the machinery to run and record
/// transactions against it.
#[derive(Debug)]
pub struct Tpcc {
    /// The recorded execution environment.
    pub env: Env,
    /// The engine.
    pub db: Db,
    /// The table catalog.
    pub tables: Tables,
    /// The workload configuration.
    pub cfg: TpccConfig,
    rng: StdRng,
    history_seq: u64,
}

impl Tpcc {
    /// Creates and populates a database (recording off during load).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: TpccConfig) -> Self {
        cfg.validate();
        let mut env = Env::new();
        let db = Db::new(&mut env, cfg.opts);
        let tables = Tables::create(&mut env, &db);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        load::populate(&mut env, &db, &tables, &cfg, &mut rng);
        // Transactions draw from a stream independent of load order.
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0xACE1_ACE1);
        Tpcc { env, db, tables, cfg, rng, history_seq: 1 << 32 }
    }

    /// A copy of this database that runs the engine with `opts`. It
    /// shares the memory image copy-on-write and copies the page
    /// registry, catalog, transaction RNG and history sequence, so the
    /// copy records exactly what this database would. A populated
    /// database is forked once per recording instead of populated again:
    /// population never reads the engine options (DESIGN §9.7).
    ///
    /// # Panics
    ///
    /// Panics if a pager is attached or a recording is running.
    pub fn fork(&mut self, opts: OptLevel) -> Tpcc {
        let mut copy = Tpcc {
            env: self.env.fork(),
            db: self.db,
            tables: self.tables,
            cfg: self.cfg.clone(),
            rng: self.rng.clone(),
            history_seq: self.history_seq,
        };
        copy.cfg.opts = opts;
        copy.db.opts = opts;
        copy
    }

    /// Records `count` back-to-back instances of `txn` as a
    /// TLS-parallelized trace.
    pub fn record(&mut self, txn: Transaction, count: usize) -> TraceProgram {
        self.record_mode(txn, count, true)
    }

    /// Records `count` instances with the parallel markers ignored (the
    /// SEQUENTIAL trace).
    pub fn record_plain(&mut self, txn: Transaction, count: usize) -> TraceProgram {
        self.record_mode(txn, count, false)
    }

    fn record_mode(&mut self, txn: Transaction, count: usize, tls: bool) -> TraceProgram {
        self.env.rec.start(txn.trace_name(), tls);
        for _ in 0..count {
            self.run_one(txn);
        }
        self.env.rec.finish()
    }

    /// Attaches a disk-backed buffer pool under the engine: every table
    /// page becomes evictable through a pool of `frames` frames whose
    /// simulated disk applies `plan`. The current database contents
    /// become the fault-exempt bootstrap checkpoint; each subsequent
    /// [`Self::run_one`] executes as one logged mini-transaction, so the
    /// run is crash-recoverable at any durable-log LSN.
    ///
    /// # Panics
    ///
    /// Panics if a pager is already attached, or (later, on first
    /// eviction) if `frames` is smaller than one transaction's pinned
    /// working set.
    pub fn attach_pager(&mut self, frames: usize, plan: DiskFaultPlan, observe: bool) {
        let permanents: Vec<(Addr, u64)> =
            self.tables.all().iter().map(|t| t.meta_region()).collect();
        let pager = Box::new(Pager::new(&mut self.env, frames, plan, observe));
        self.env.attach_pager(pager, &permanents);
    }

    /// Buffer-pool counters, if a pool is attached.
    pub fn pager_counters(&self) -> Option<PagerCounters> {
        self.env.pager().map(|p| p.counters())
    }

    /// Executes one transaction (recording optional). With a buffer pool
    /// attached the transaction runs as one mini-transaction: its pages
    /// stay pinned until the end, then the WAL logs every change.
    pub fn run_one(&mut self, txn: Transaction) {
        self.env.mtr_begin();
        match txn {
            Transaction::NewOrder => new_order::run(self, 5, 15),
            Transaction::NewOrder150 => new_order::run(self, 50, 150),
            Transaction::Payment => payment::run(self),
            Transaction::OrderStatus => order_status::run(self),
            Transaction::Delivery => delivery::run(self, delivery::Variant::Inner),
            Transaction::DeliveryOuter => delivery::run(self, delivery::Variant::Outer),
            Transaction::StockLevel => stock_level::run(self),
        }
        self.env.mtr_end();
    }

    /// Draws the next transaction type per the TPC-C mix weights
    /// (§5.2.3: 45% NEW ORDER, 43% PAYMENT, 4% each ORDER STATUS,
    /// DELIVERY, STOCK LEVEL).
    pub fn next_mix_transaction(&mut self) -> Transaction {
        match self.rng.gen_range(1..=100u32) {
            1..=45 => Transaction::NewOrder,
            46..=88 => Transaction::Payment,
            89..=92 => Transaction::OrderStatus,
            93..=96 => Transaction::Delivery,
            _ => Transaction::StockLevel,
        }
    }

    /// Records `count` transactions of the standard TPC-C mix as one TLS
    /// trace program — the paper runs transactions one at a time, so the
    /// mix concatenates as back-to-back regions.
    pub fn record_mix(&mut self, count: usize) -> TraceProgram {
        self.env.rec.start("tpcc_mix", true);
        for _ in 0..count {
            let txn = self.next_mix_transaction();
            self.run_one(txn);
        }
        self.env.rec.finish()
    }

    /// Records the (plain, TLS) trace pair of a benchmark from one
    /// population, each half on its own [fork](Self::fork): the plain
    /// half runs the unmodified engine ([`OptLevel::none`]), the TLS half
    /// the engine configured in `cfg`.
    pub fn record_pair(
        cfg: &TpccConfig,
        txn: Transaction,
        count: usize,
    ) -> (TraceProgram, TraceProgram) {
        let mut db = Tpcc::new(cfg.clone());
        let plain = db.fork(OptLevel::none()).record_plain(txn, count);
        let tls = db.fork(cfg.opts).record(txn, count);
        (plain, tls)
    }

    // ------------------------------------------------------------------
    // TPC-C parameter generation (run rules §2.1.5 / NURand).

    /// TPC-C NURand(A, x, y) with the standard C constant derived from
    /// the seed.
    pub(crate) fn nurand(&mut self, a: u32, x: u32, y: u32) -> u32 {
        let c = (self.cfg.seed as u32) % (a + 1);
        let r1 = self.rng.gen_range(0..=a);
        let r2 = self.rng.gen_range(x..=y);
        (((r1 | r2) + c) % (y - x + 1)) + x
    }

    /// A NURand customer id.
    pub(crate) fn pick_customer(&mut self) -> u32 {
        self.nurand(1023, 1, self.cfg.customers_per_district)
    }

    /// A NURand item id.
    pub(crate) fn pick_item(&mut self) -> u32 {
        self.nurand(8191, 1, self.cfg.items)
    }

    /// A uniform district id.
    pub(crate) fn pick_district(&mut self) -> u32 {
        self.rng.gen_range(1..=self.cfg.districts)
    }

    /// A uniform value in `lo..=hi`.
    pub(crate) fn uniform(&mut self, lo: u32, hi: u32) -> u32 {
        self.rng.gen_range(lo..=hi)
    }

    /// `n` distinct NURand item ids.
    pub(crate) fn pick_items(&mut self, n: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let i = self.pick_item();
            if !out.contains(&i) {
                out.push(i);
            }
        }
        out
    }

    /// A NURand customer last-name hash (TPC-C picks among 1000 syllable
    /// triples; the hash stands in for the name bytes). Scaled-down
    /// populations only assign the first `customers_per_district` names,
    /// so the draw is capped to names that exist.
    pub(crate) fn pick_lastname_hash(&mut self) -> u64 {
        let max_name = 999.min(self.cfg.customers_per_district - 1);
        lastname_hash(self.nurand(255, 0, max_name))
    }

    /// The next history key.
    pub(crate) fn next_history_key(&mut self) -> u64 {
        self.history_seq += 1;
        self.history_seq
    }

    /// Allocates a thread-private scratch block for overhead emission.
    pub(crate) fn scratch(&mut self) -> Addr {
        self.env.alloc(256, 64)
    }

    /// Emits `mult ×` the configured DBMS overhead at `pc`.
    pub(crate) fn work(&mut self, pc: Pc, scratch: Addr, mult: u32) {
        let groups = (self.cfg.work_scale * mult) as usize;
        self.env.overhead(pc, scratch, groups);
    }

    /// Emits `num/den ×` the configured DBMS overhead at `pc` (for the
    /// lightweight read paths: index-only scans, stock probes).
    pub(crate) fn work_frac(&mut self, pc: Pc, scratch: Addr, num: u32, den: u32) {
        let groups = (self.cfg.work_scale * num).div_ceil(den) as usize;
        self.env.overhead(pc, scratch, groups);
    }
}

/// The stable hash of TPC-C last name number `idx` (0..=999).
pub fn lastname_hash(idx: u32) -> u64 {
    // splitmix64 of the index: stable, well spread.
    let mut z = idx as u64 ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nurand_stays_in_range() {
        let mut t = Tpcc::new(TpccConfig::test());
        for _ in 0..500 {
            let c = t.pick_customer();
            assert!((1..=t.cfg.customers_per_district).contains(&c));
            let i = t.pick_item();
            assert!((1..=t.cfg.items).contains(&i));
        }
    }

    #[test]
    fn pick_items_are_distinct() {
        let mut t = Tpcc::new(TpccConfig::test());
        let items = t.pick_items(150);
        let set: std::collections::HashSet<_> = items.iter().collect();
        assert_eq!(set.len(), 150);
    }

    #[test]
    fn identical_seeds_give_identical_parameters() {
        let mut a = Tpcc::new(TpccConfig::test());
        let mut b = Tpcc::new(TpccConfig::test());
        for _ in 0..100 {
            assert_eq!(a.pick_customer(), b.pick_customer());
            assert_eq!(a.pick_item(), b.pick_item());
        }
    }

    #[test]
    fn all_seven_benchmarks_are_listed() {
        assert_eq!(Transaction::ALL.len(), 7);
        let labels: std::collections::HashSet<_> =
            Transaction::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(labels.len(), 7);
    }

    #[test]
    fn cli_names_round_trip() {
        for t in Transaction::ALL {
            assert_eq!(Transaction::from_cli_name(t.trace_name()), Some(t));
            assert_eq!(Transaction::from_cli_name(t.label()), Some(t));
            assert_eq!(Transaction::from_cli_name(&t.label().to_lowercase()), Some(t));
        }
        assert_eq!(Transaction::from_cli_name("new-order"), Some(Transaction::NewOrder));
        assert_eq!(Transaction::from_cli_name("  NEW_ORDER_150 "), Some(Transaction::NewOrder150));
        assert_eq!(Transaction::from_cli_name("neworder"), None);
        assert_eq!(Transaction::from_cli_name(""), None);
    }

    #[test]
    fn mix_records_and_stays_consistent() {
        let mut t = Tpcc::new(TpccConfig::test());
        let p = t.record_mix(20);
        assert!(p.total_ops() > 0);
        assert!(p.stats().epochs > 0, "the mix includes parallelizable transactions");
        consistency::check(&mut t).expect("consistent after the mix");
    }

    #[test]
    fn mix_weights_roughly_match_the_spec() {
        let mut t = Tpcc::new(TpccConfig::test());
        let mut counts = std::collections::HashMap::new();
        for _ in 0..2000 {
            *counts.entry(t.next_mix_transaction().label()).or_insert(0u32) += 1;
        }
        let no = counts["NEW ORDER"] as f64 / 2000.0;
        let pay = counts["PAYMENT"] as f64 / 2000.0;
        assert!((0.40..0.50).contains(&no), "NEW ORDER fraction {no}");
        assert!((0.38..0.48).contains(&pay), "PAYMENT fraction {pay}");
    }

    #[test]
    fn lastname_hash_is_stable_and_spread() {
        assert_eq!(lastname_hash(5), lastname_hash(5));
        let distinct: std::collections::HashSet<_> = (0..1000).map(lastname_hash).collect();
        assert_eq!(distinct.len(), 1000);
    }
}
