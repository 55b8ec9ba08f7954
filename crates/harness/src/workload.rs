//! The declarative workload language: JSON specs compiled to trace
//! programs.
//!
//! A [`WorkloadSpec`] describes a synthetic key-value workload over one
//! MiniDB table plus a secondary index: an operation mix (point reads,
//! point updates, predicate-filtered range scans), key skew via a seeded
//! Zipfian sampler, scan lengths and think time. [`compile`] *executes*
//! the spec against a fresh database twice — once with the engine
//! unoptimized and the recorder in sequential mode, once fully optimized
//! in TLS mode — producing the `(plain, tls)` program pair every other
//! benchmark records.
//!
//! Range scans are speculatively parallelized the way the paper
//! parallelized the DELIVERY outer loop: the scan splits into chunks of
//! `rows_per_epoch` keys, each chunk becomes one epoch, and every epoch
//! (a) reads its key range through a [`RangeScan`] with a field
//! predicate, (b) probes the secondary index for each qualifying row,
//! (c) performs `colliders_per_epoch` Zipfian point updates — the writes
//! that collide with other epochs' reads when skew concentrates the key
//! stream — and (d) read-modify-writes a shared aggregate cell near its
//! end, the position-correlated dependence sub-threads contain. Scan
//! epochs are stamped with [`SCAN_LOOP_MODULE`] so the simulator's
//! `scan_epochs` / `scan_epoch_ops` report fields attribute them.
//!
//! Spec parsing is strict: unknown fields and out-of-range values return
//! a typed [`SpecError`] carrying the offending field name and its line
//! in the source text, plus the full list of valid fields — the `suite
//! workload` verb prints these and exits 2, matching the probe binary's
//! unknown-benchmark convention.

use serde::{Serialize, Value};
use std::fmt;
use tls_minidb::{
    BTree, CmpOp, Db, Env, FieldPred, FieldWidth, LocalLog, OptLevel, RangeScan, SecondaryIndex,
};
use tls_trace::{Pc, TraceProgram, SCAN_LOOP_MODULE};

/// PC module of sequential workload operations and the base table.
pub const WORKLOAD_MODULE: u16 = 0x70;
/// PC module of the secondary index tree.
pub const WORKLOAD_INDEX_MODULE: u16 = 0x71;

// Sites within WORKLOAD_MODULE.
const READ: u16 = 1;
const UPDATE: u16 = 2;
const THINK: u16 = 3;
const COMMIT: u16 = 4;

// Sites within SCAN_LOOP_MODULE (the parallelized scan body).
const SPAWN: u16 = 0;
const ROW: u16 = 1;
const PROBE: u16 = 2;
const COLLIDE: u16 = 3;
const AGG: u16 = 4;

/// Row layout: `val: u64` at offset 0, `cat: u32` at offset 8; the rest
/// of the row is payload the scans read through.
const VAL_OFF: u64 = 0;
const CAT_OFF: u64 = 8;

/// Categories the secondary index partitions rows into.
const CATEGORIES: u64 = 16;

/// Operation-mix weights (relative, need not sum to anything).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MixWeights {
    /// Weight of single-row reads.
    pub point_read: u32,
    /// Weight of single-row updates (with index maintenance).
    pub point_update: u32,
    /// Weight of predicate-filtered range scans (the parallelized op).
    pub range_scan: u32,
}

impl MixWeights {
    fn total(&self) -> u64 {
        self.point_read as u64 + self.point_update as u64 + self.range_scan as u64
    }
}

/// A declarative workload: what `specs/*.json` files deserialize to.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadSpec {
    /// Workload name (artifact file stem; `[A-Za-z0-9_-]+`).
    pub name: String,
    /// RNG seed: identical seeds give byte-identical programs.
    pub seed: u64,
    /// Rows loaded into the base table (keys `0..rows`).
    pub rows: u64,
    /// Bytes per row (16..=256, multiple of 8).
    pub row_bytes: u16,
    /// Transactions recorded back to back.
    pub transactions: usize,
    /// Operation-mix weights.
    pub mix: MixWeights,
    /// Zipfian skew of the key stream: 0.0 = uniform, towards 1.0 =
    /// heavily skewed (must be < 1.0).
    pub zipf_theta: f64,
    /// Keys covered by one range scan.
    pub scan_len: u64,
    /// Keys per speculative epoch within a scan.
    pub rows_per_epoch: u64,
    /// Zipfian point updates each scan epoch performs — the writes that
    /// collide with sibling epochs' reads.
    pub colliders_per_epoch: u32,
    /// Overhead instruction groups of think time between transactions.
    pub think_ops: u32,
}

impl WorkloadSpec {
    /// The default spec: a scan-heavy mix with moderate skew, sized for
    /// sub-second compilation.
    pub fn example() -> WorkloadSpec {
        WorkloadSpec {
            name: "example".to_string(),
            seed: 7,
            rows: 2048,
            row_bytes: 64,
            transactions: 10,
            mix: MixWeights { point_read: 2, point_update: 3, range_scan: 5 },
            zipf_theta: 0.8,
            scan_len: 512,
            rows_per_epoch: 64,
            colliders_per_epoch: 4,
            think_ops: 8,
        }
    }

    /// Shrinks the spec for fast test-scale runs while keeping every
    /// structural invariant (scans still span several epochs).
    pub fn scaled_down(&self) -> WorkloadSpec {
        let mut s = self.clone();
        s.rows = (s.rows / 4).max(256);
        s.transactions = (s.transactions / 2).max(4);
        s.scan_len = (s.scan_len / 4).max(64).min(s.rows);
        s.rows_per_epoch = s.rows_per_epoch.min(s.scan_len / 4).max(1);
        s
    }

    /// Every field a spec file may contain, with a one-line summary
    /// (printed by the `suite workload` verb on a parse error).
    pub fn valid_fields() -> &'static [(&'static str, &'static str)] {
        &[
            ("name", "workload name, [A-Za-z0-9_-]+ (artifact file stem)"),
            ("seed", "RNG seed (unsigned integer)"),
            ("rows", "rows in the base table, >= 16"),
            ("row_bytes", "bytes per row, 16..=256, multiple of 8"),
            ("transactions", "transactions to record, >= 1"),
            ("mix", "object {point_read, point_update, range_scan} of weights"),
            ("zipf_theta", "key skew in [0.0, 1.0)"),
            ("scan_len", "keys per range scan, rows_per_epoch..=rows"),
            ("rows_per_epoch", "keys per speculative scan epoch, >= 1"),
            ("colliders_per_epoch", "point updates per scan epoch"),
            ("think_ops", "think-time overhead groups between transactions"),
        ]
    }

    /// Parses a spec from JSON source text. Unknown fields, type
    /// mismatches and out-of-range values all produce a [`SpecError`]
    /// naming the field and its line in `src`.
    pub fn parse(src: &str) -> Result<WorkloadSpec, SpecError> {
        let value = serde::parse(src).map_err(|e| SpecError {
            field: None,
            line: None,
            message: format!("not JSON: {e}"),
        })?;
        let Value::Object(pairs) = &value else {
            return Err(SpecError {
                field: None,
                line: None,
                message: "spec must be a JSON object".to_string(),
            });
        };
        let mut spec = WorkloadSpec::example();
        let err = |field: &str, message: String| SpecError {
            field: Some(field.to_string()),
            line: line_of(src, field),
            message,
        };
        let as_u64 = |field: &str, v: &Value| match v {
            Value::Int(i) if *i >= 0 => Ok(*i as u64),
            _ => Err(err(field, "expected an unsigned integer".to_string())),
        };
        for (key, v) in pairs {
            match key.as_str() {
                "name" => match v {
                    Value::Str(s) => spec.name = s.clone(),
                    _ => return Err(err("name", "expected a string".to_string())),
                },
                "seed" => spec.seed = as_u64("seed", v)?,
                "rows" => spec.rows = as_u64("rows", v)?,
                "row_bytes" => {
                    let n = as_u64("row_bytes", v)?;
                    spec.row_bytes = u16::try_from(n)
                        .map_err(|_| err("row_bytes", "value too large".to_string()))?;
                }
                "transactions" => spec.transactions = as_u64("transactions", v)? as usize,
                "mix" => {
                    let Value::Object(mix) = v else {
                        return Err(err("mix", "expected an object of weights".to_string()));
                    };
                    for (mk, mv) in mix {
                        let w = as_u64(mk, mv)? as u32;
                        match mk.as_str() {
                            "point_read" => spec.mix.point_read = w,
                            "point_update" => spec.mix.point_update = w,
                            "range_scan" => spec.mix.range_scan = w,
                            other => {
                                return Err(err(
                                    other,
                                    "unknown mix weight (valid: point_read, point_update, \
                                     range_scan)"
                                        .to_string(),
                                ))
                            }
                        }
                    }
                }
                "zipf_theta" => match v {
                    Value::Float(f) => spec.zipf_theta = *f,
                    Value::Int(i) => spec.zipf_theta = *i as f64,
                    _ => return Err(err("zipf_theta", "expected a number".to_string())),
                },
                "scan_len" => spec.scan_len = as_u64("scan_len", v)?,
                "rows_per_epoch" => spec.rows_per_epoch = as_u64("rows_per_epoch", v)?,
                "colliders_per_epoch" => {
                    spec.colliders_per_epoch = as_u64("colliders_per_epoch", v)? as u32
                }
                "think_ops" => spec.think_ops = as_u64("think_ops", v)? as u32,
                other => {
                    return Err(SpecError {
                        field: Some(other.to_string()),
                        line: line_of(src, other),
                        message: "unknown field".to_string(),
                    })
                }
            }
        }
        spec.validate(src)?;
        Ok(spec)
    }

    /// Checks every value constraint, reporting the first violation with
    /// field and line context (`src` may be empty for in-memory specs).
    pub fn validate(&self, src: &str) -> Result<(), SpecError> {
        let err = |field: &str, message: String| SpecError {
            field: Some(field.to_string()),
            line: line_of(src, field),
            message,
        };
        if self.name.is_empty()
            || self.name.len() > 64
            || !self.name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(err("name", "must be 1..=64 chars of [A-Za-z0-9_-]".to_string()));
        }
        if self.rows < 16 {
            return Err(err("rows", format!("must be >= 16, got {}", self.rows)));
        }
        if self.row_bytes < 16 || self.row_bytes > 256 || !self.row_bytes.is_multiple_of(8) {
            return Err(err(
                "row_bytes",
                format!("must be 16..=256 and a multiple of 8, got {}", self.row_bytes),
            ));
        }
        if self.transactions == 0 {
            return Err(err("transactions", "must be >= 1".to_string()));
        }
        if self.mix.total() == 0 {
            return Err(err("mix", "at least one weight must be positive".to_string()));
        }
        if !(0.0..1.0).contains(&self.zipf_theta) {
            return Err(err(
                "zipf_theta",
                format!("must be in [0.0, 1.0), got {}", self.zipf_theta),
            ));
        }
        if self.rows_per_epoch == 0 {
            return Err(err("rows_per_epoch", "must be >= 1".to_string()));
        }
        if self.scan_len < self.rows_per_epoch || self.scan_len > self.rows {
            return Err(err(
                "scan_len",
                format!(
                    "must be in rows_per_epoch..=rows ({}..={}), got {}",
                    self.rows_per_epoch, self.rows, self.scan_len
                ),
            ));
        }
        Ok(())
    }
}

/// First line (1-based) on which `"field"` appears in the source text;
/// `None` when the field is absent (defaulted or in-memory specs).
fn line_of(src: &str, field: &str) -> Option<usize> {
    let needle = format!("\"{field}\"");
    let pos = src.find(&needle)?;
    Some(src[..pos].bytes().filter(|&b| b == b'\n').count() + 1)
}

/// A typed spec failure: which field, where in the file, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The offending field, if the failure is field-specific.
    pub field: Option<String>,
    /// 1-based line of the field in the source text, if it appears.
    pub line: Option<usize>,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.field, self.line) {
            (Some(field), Some(line)) => {
                write!(f, "line {line}: field `{field}`: {}", self.message)
            }
            (Some(field), None) => write!(f, "field `{field}`: {}", self.message),
            _ => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for SpecError {}

// ---------------------------------------------------------------------------
// Zipfian sampler.
// ---------------------------------------------------------------------------

/// Seeded Zipfian key sampler over `0..n` (Gray et al.'s rejection-free
/// method): rank 0 is the hottest key. `theta = 0` degrades to uniform;
/// the same seed always produces the same sequence.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    state: u64,
}

impl Zipf {
    /// A sampler over `0..n` with skew `theta` in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `[0, 1)`.
    pub fn new(n: u64, theta: f64, seed: u64) -> Zipf {
        assert!(n > 0, "Zipf needs a non-empty key space");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = if n > 1 {
            (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan)
        } else {
            0.0
        };
        Zipf { n, theta, alpha, zetan, eta, state: seed }
    }

    /// The next key, in `0..n`. Named like `Iterator::next` on purpose —
    /// the sampler is an infinite stream, but `Option` wrapping would
    /// only add noise at every draw site.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let u = self.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if self.n >= 2 && uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }

    /// A uniform draw in `[0, 1)` from the internal splitmix64 stream.
    fn next_f64(&mut self) -> f64 {
        (splitmix64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The generalized harmonic number `sum_{i=1..n} i^-theta`.
fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// The compiler.
// ---------------------------------------------------------------------------

/// A compiled spec: the recorded `(plain, tls)` program pair plus static
/// accounting of what the compiler emitted.
#[derive(Debug)]
pub struct CompiledWorkload {
    /// The sequential-reference recording (unoptimized engine).
    pub plain: TraceProgram,
    /// The TLS recording (optimized engine, scans parallelized).
    pub tls: TraceProgram,
    /// Range-scan transactions in the recorded stream.
    pub scan_transactions: usize,
    /// Point reads + point updates in the recorded stream.
    pub point_transactions: usize,
}

/// Compiles a spec: loads its database once and executes the spec twice,
/// the plain half on a copy of the loaded database and the TLS half on
/// the original, and returns both recordings. Pure — every byte is a
/// function of the spec.
pub fn compile(spec: &WorkloadSpec) -> CompiledWorkload {
    let mut loaded = load(spec);
    let (plain, scans, points) = record(spec, loaded.fork(), false);
    let (tls, _, _) = record(spec, loaded, true);
    CompiledWorkload { plain, tls, scan_transactions: scans, point_transactions: points }
}

/// The category a row's `val` maps to (index maintenance follows `val`).
/// Locality-preserving on purpose: a `val += 1` update crosses a category
/// boundary ~1/8 of the time, so collider updates migrate index entries
/// at a tolerable rate instead of rewriting the index on every bump.
fn category(val: u64) -> u64 {
    (val / 8) % CATEGORIES
}

/// The secondary-index key of `(cat, primary)`.
fn index_key(cat: u64, primary: u64) -> u64 {
    (cat << 40) | primary
}

struct Run {
    env: Env,
    db: Db,
    base: BTree,
    index: BTree,
    zipf: Zipf,
    rng: u64,
}

impl Run {
    /// One Zipfian key, hottest rank mapped across the table by a fixed
    /// bijection so hot keys are spread over B-tree leaves.
    fn key(&mut self, rows: u64) -> u64 {
        let rank = self.zipf.next();
        rank.wrapping_mul(0x9E37_79B9) % rows
    }
}

/// A spec's loaded database: the engine, the base table and its index.
struct Loaded {
    env: Env,
    db: Db,
    base: BTree,
    index: BTree,
}

impl Loaded {
    /// A copy of the loaded database.
    fn fork(&mut self) -> Loaded {
        Loaded { env: self.env.fork(), db: self.db, base: self.base, index: self.index }
    }
}

/// Creates the spec's tables and loads them (recording off): keys
/// 0..rows, val seeded from the key, the index entry following the
/// category of val. Loading never reads the engine options, so one load
/// serves both halves of a compile.
fn load(spec: &WorkloadSpec) -> Loaded {
    let mut env = Env::new();
    let db = Db::new(&mut env, OptLevel::none());
    let base = db.create_tree(&mut env, spec.row_bytes, WORKLOAD_MODULE);
    let index = db.create_tree(&mut env, 8, WORKLOAD_INDEX_MODULE);
    let by_cat = SecondaryIndex::new(index);
    for k in 0..spec.rows {
        let val = k.wrapping_mul(31).wrapping_add(spec.seed);
        let mut row = vec![0u8; spec.row_bytes as usize];
        row[..8].copy_from_slice(&val.to_le_bytes());
        row[8..12].copy_from_slice(&(category(val) as u32).to_le_bytes());
        assert!(base.insert(&mut env, &db.alloc, k, &row), "load keys are distinct");
        assert!(by_cat.insert(&mut env, &db.alloc, index_key(category(val), k), k));
    }
    Loaded { env, db, base, index }
}

/// Executes the spec on `loaded`, recording it (`tls` selects the TLS
/// transformation). Returns the recording and its scan and point
/// transaction counts.
fn record(spec: &WorkloadSpec, loaded: Loaded, tls: bool) -> (TraceProgram, usize, usize) {
    let Loaded { env, mut db, base, index } = loaded;
    db.opts = if tls { OptLevel::fully_optimized() } else { OptLevel::none() };
    let mut run = Run {
        env,
        db,
        base,
        index,
        zipf: Zipf::new(spec.rows, spec.zipf_theta, spec.seed ^ 0x5CA1),
        rng: spec.seed ^ 0xACE1,
    };
    let mut scans = 0usize;
    let mut points = 0usize;
    run.env.rec.start(&spec.name, tls);
    let scratch = run.env.alloc(256, 64);
    for _ in 0..spec.transactions {
        run.env.mtr_begin();
        let draw = splitmix64(&mut run.rng) % spec.mix.total();
        if draw < spec.mix.point_read as u64 {
            point_read(&mut run, spec);
            points += 1;
        } else if draw < (spec.mix.point_read + spec.mix.point_update) as u64 {
            point_update(&mut run, spec, Pc::new(WORKLOAD_MODULE, UPDATE), None);
            points += 1;
        } else {
            range_scan(&mut run, spec);
            scans += 1;
        }
        run.env.mtr_end();
        // Think time between transactions (non-speculative).
        run.env.overhead(Pc::new(WORKLOAD_MODULE, THINK), scratch, spec.think_ops as usize);
    }
    (run.env.rec.finish(), scans, points)
}

/// One point read: a B-tree descent plus the row's fields.
fn point_read(run: &mut Run, spec: &WorkloadSpec) {
    let k = run.key(spec.rows);
    let pc = Pc::new(WORKLOAD_MODULE, READ);
    let env = &mut run.env;
    let ra = run.base.get_addr(env, k).expect("loaded key");
    let _val = env.load_u64(pc, ra.offset(VAL_OFF));
    let _cat = env.load_u32(pc, ra.offset(CAT_OFF));
    env.alu(pc, 4);
}

/// One point update: bump `val`, and when its category moves, migrate
/// the secondary-index entry (remove + insert) inside the same
/// mini-transaction — the index-page writes scans collide with.
fn point_update(run: &mut Run, spec: &WorkloadSpec, pc: Pc, local: Option<&mut LocalLog>) {
    let k = run.key(spec.rows);
    let env = &mut run.env;
    let ra = run.base.get_addr(env, k).expect("loaded key");
    let val = env.load_u64(pc, ra.offset(VAL_OFF));
    let new_val = val.wrapping_add(1);
    env.alu(pc, 2);
    env.store_u64(pc, ra.offset(VAL_OFF), new_val);
    let (old_cat, new_cat) = (category(val), category(new_val));
    if old_cat != new_cat {
        let by_cat = SecondaryIndex::new(run.index);
        assert!(by_cat.remove(env, index_key(old_cat, k)), "index entry tracks val");
        assert!(by_cat.insert(env, &run.db.alloc, index_key(new_cat, k), k));
        env.store_u32(pc, ra.offset(CAT_OFF), new_cat as u32);
    }
    run.db.log(env, spec.row_bytes as u64, local);
    run.db.bump_stats(env);
}

/// One range scan, parallelized DELIVERY-OUTER style: each chunk of
/// `rows_per_epoch` keys is one speculative epoch.
fn range_scan(run: &mut Run, spec: &WorkloadSpec) {
    // The scan window, clamped so it always covers scan_len keys.
    let start = run.key(spec.rows).min(spec.rows - spec.scan_len);
    // The predicate keeps roughly half the rows: categories are spread
    // uniformly, so `cat < CATEGORIES/2` halves the chunk (and collider
    // updates migrate rows across the boundary between recordings of
    // later chunks, keeping the filter genuinely data-dependent).
    let pred =
        FieldPred { offset: CAT_OFF, width: FieldWidth::U32, op: CmpOp::Lt, value: CATEGORIES / 2 };
    // Shared match-count cell: every epoch read-modify-writes it near
    // its end (the aggregation dependence sub-threads contain).
    let agg = run.env.alloc(8, 8);
    run.env.mem.poke_u64(agg, 0);

    run.env.rec.begin_parallel();
    let mut lo = start;
    while lo < start + spec.scan_len {
        let hi = (lo + spec.rows_per_epoch).min(start + spec.scan_len);
        run.env.rec.begin_epoch(Pc::new(SCAN_LOOP_MODULE, SPAWN));
        let escratch = run.env.alloc(256, 64);
        let mut local = run.db.opts.per_thread_log.then(|| run.db.local_log(&mut run.env));

        // (a) Read the chunk through the predicate-filtered scan,
        // probing the secondary index for each qualifying row.
        let chunk = RangeScan::new(lo, hi).filter(pred);
        let env = &mut run.env;
        let by_cat = SecondaryIndex::new(run.index);
        let base = run.base;
        let matched = chunk.run(&base, env, Pc::new(SCAN_LOOP_MODULE, ROW), |env, k, ra| {
            let cat = env.load_u32(Pc::new(SCAN_LOOP_MODULE, ROW), ra.offset(CAT_OFF));
            let hit = by_cat.probe(env, Pc::new(SCAN_LOOP_MODULE, PROBE), index_key(cat as u64, k));
            debug_assert_eq!(hit, Some(k), "index entry tracks cat");
            true
        });
        run.env.overhead(Pc::new(SCAN_LOOP_MODULE, ROW), escratch, spec.think_ops as usize);

        // (b) The colliders: Zipfian point updates from inside the scan
        // epoch — with skew, they land in other epochs' chunks.
        for _ in 0..spec.colliders_per_epoch {
            point_update(run, spec, Pc::new(SCAN_LOOP_MODULE, COLLIDE), local.as_mut());
        }

        // (c) Aggregate near the end of the epoch.
        let env = &mut run.env;
        let n = env.load_u64(Pc::new(SCAN_LOOP_MODULE, AGG), agg);
        env.alu(Pc::new(SCAN_LOOP_MODULE, AGG), 2);
        env.store_u64(Pc::new(SCAN_LOOP_MODULE, AGG), agg, n + matched);
        if let Some(buf) = &local {
            run.db.log_commit(&mut run.env, buf);
        }
        run.env.rec.end_epoch();
        lo = hi;
    }
    run.env.rec.end_parallel();

    // Commit-side consumption of the aggregate (sequential).
    let env = &mut run.env;
    let pc = Pc::new(WORKLOAD_MODULE, COMMIT);
    let _total = env.load_u64(pc, agg);
    env.alu(pc, 2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_spec_round_trips_through_json() {
        let spec = WorkloadSpec::example();
        let json = serde_json::to_string_pretty(&spec).expect("spec serializes");
        let parsed = WorkloadSpec::parse(&json).expect("round trip");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn empty_object_gets_every_default() {
        let spec = WorkloadSpec::parse("{}").expect("defaults");
        assert_eq!(spec, WorkloadSpec::example());
    }

    #[test]
    fn unknown_field_reports_name_and_line() {
        let src = "{\n  \"rows\": 64,\n  \"zipf_tehta\": 0.5\n}\n";
        let e = WorkloadSpec::parse(src).unwrap_err();
        assert_eq!(e.field.as_deref(), Some("zipf_tehta"));
        assert_eq!(e.line, Some(3));
        assert!(e.message.contains("unknown field"), "{e}");
    }

    #[test]
    fn out_of_range_values_report_field_context() {
        let e = WorkloadSpec::parse("{\"zipf_theta\": 1.5}").unwrap_err();
        assert_eq!(e.field.as_deref(), Some("zipf_theta"));
        assert_eq!(e.line, Some(1));

        let e = WorkloadSpec::parse("{\"rows\": 4}").unwrap_err();
        assert_eq!(e.field.as_deref(), Some("rows"));

        let e = WorkloadSpec::parse(
            "{\"mix\": {\"point_read\": 0, \"point_update\": 0, \
                                      \"range_scan\": 0}}",
        )
        .unwrap_err();
        assert_eq!(e.field.as_deref(), Some("mix"));

        let e = WorkloadSpec::parse("{\"name\": \"no spaces!\"}").unwrap_err();
        assert_eq!(e.field.as_deref(), Some("name"));
    }

    #[test]
    fn type_mismatch_is_a_typed_error_not_a_panic() {
        let e = WorkloadSpec::parse("{\"rows\": \"many\"}").unwrap_err();
        assert_eq!(e.field.as_deref(), Some("rows"));
        assert!(e.message.contains("unsigned integer"), "{e}");
        let e = WorkloadSpec::parse("not json at all").unwrap_err();
        assert!(e.field.is_none());
    }

    #[test]
    fn zipf_same_seed_same_sequence() {
        let mut a = Zipf::new(1000, 0.9, 42);
        let mut b = Zipf::new(1000, 0.9, 42);
        for _ in 0..500 {
            assert_eq!(a.next(), b.next());
        }
        let mut c = Zipf::new(1000, 0.9, 43);
        let differs = (0..500).any(|_| a.next() != c.next());
        assert!(differs, "different seeds should diverge");
    }

    #[test]
    fn zipf_stays_in_range_and_skews_towards_low_ranks() {
        let n = 500u64;
        let draws = 20_000usize;
        let mass_of_head = |theta: f64| -> f64 {
            let mut z = Zipf::new(n, theta, 9);
            let mut head = 0usize;
            for _ in 0..draws {
                let k = z.next();
                assert!(k < n);
                if k < 10 {
                    head += 1;
                }
            }
            head as f64 / draws as f64
        };
        let uniform = mass_of_head(0.0);
        let skewed = mass_of_head(0.9);
        assert!(uniform < 0.08, "uniform head mass {uniform}");
        assert!(skewed > 3.0 * uniform, "skew should concentrate: {skewed} vs {uniform}");
    }

    #[test]
    fn compile_is_deterministic_and_stamps_scan_epochs() {
        let mut spec = WorkloadSpec::example().scaled_down();
        spec.transactions = 6;
        let a = compile(&spec);
        let b = compile(&spec);
        let enc = |p: &TraceProgram| serde_json::to_string(p).expect("program serializes");
        assert_eq!(enc(&a.tls), enc(&b.tls));
        assert_eq!(enc(&a.plain), enc(&b.plain));

        // The TLS recording carries scan epochs stamped with the scan
        // module; the plain recording has no parallel regions at all.
        let (epochs, ops) = a.tls.epochs_of_module(SCAN_LOOP_MODULE);
        assert!(a.scan_transactions > 0, "mix should draw at least one scan");
        let chunks = spec.scan_len.div_ceil(spec.rows_per_epoch);
        assert_eq!(epochs, a.scan_transactions as u64 * chunks);
        assert!(ops > 0);
        assert_eq!(a.plain.epochs_of_module(SCAN_LOOP_MODULE), (0, 0));
        assert!(
            a.plain.regions.iter().all(|r| matches!(r, tls_trace::Region::Sequential(_))),
            "the plain recording must have no parallel regions"
        );
        assert!(a.tls.total_ops() > 0 && a.plain.total_ops() > 0);
    }

    #[test]
    fn scaled_down_specs_stay_valid() {
        let spec = WorkloadSpec::example().scaled_down();
        spec.validate("").expect("scaled spec valid");
        assert!(spec.rows >= spec.scan_len);
        assert!(spec.scan_len >= spec.rows_per_epoch);
    }
}
